#include "reliability/lifetime.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/parallel.hh"
#include "reliability/result_cache.hh"

namespace tdc
{

// --- FIT mixes ------------------------------------------------------

std::string
FitMix::spec() const
{
    return scale == 1.0 ? base : base + "*" + exactDouble(scale);
}

double
FitMix::totalFitTransient() const
{
    double sum = 0.0;
    for (const FitClass &c : classes)
        sum += c.fitTransient;
    return sum;
}

double
FitMix::totalFitPermanent() const
{
    double sum = 0.0;
    for (const FitClass &c : classes)
        sum += c.fitPermanent;
    return sum;
}

FitMix
jaguarFitMix(double scale)
{
    // The FaultSim Jaguar mix, mapped onto the repository's array
    // footprints: bit = one cell, word = an 8-bit row burst, column /
    // row = full physical lines, bank = a small solid cluster,
    // multi-bank / multi-rank = progressively larger sparse clusters
    // (one particle or one failing peripheral structure touching many
    // cells of a region).
    FitMix mix;
    mix.base = "jaguar";
    mix.scale = scale;
    mix.classes = {
        {"bit", FaultModel::singleBit(), 14.2, 18.6},
        {"word", FaultModel::rowBurst(8), 1.4, 0.3},
        {"column", FaultModel::fullColumn(), 1.4, 5.6},
        {"row", FaultModel::fullRow(), 0.2, 8.2},
        {"bank", FaultModel::cluster(4, 4), 0.8, 10.0},
        {"nbank", FaultModel::cluster(16, 16, 0.25), 0.3, 1.4},
        {"nrank", FaultModel::cluster(32, 32, 0.125), 0.9, 2.8},
    };
    return mix;
}

std::vector<std::string>
fitMixNames()
{
    return {"jaguar", "transient", "permanent", "single"};
}

namespace
{

[[noreturn]] void
mixError(const std::string &spec, const std::string &what)
{
    throw std::invalid_argument("fit-mix spec \"" + spec + "\": " + what);
}

FitMix
namedMix(const std::string &name, const std::string &spec)
{
    if (name == "jaguar")
        return jaguarFitMix();
    if (name == "transient" || name == "permanent") {
        // The Jaguar mix restricted to one persistence: the classes
        // keep their own rates, the other manifestation is zeroed.
        FitMix mix = jaguarFitMix();
        mix.base = name;
        for (FitClass &c : mix.classes) {
            if (name == "transient")
                c.fitPermanent = 0.0;
            else
                c.fitTransient = 0.0;
        }
        return mix;
    }
    if (name == "single") {
        FitMix mix;
        mix.base = "single";
        mix.classes = {{"bit", FaultModel::singleBit(), 50.0, 50.0}};
        return mix;
    }
    std::string known;
    for (const std::string &n : fitMixNames())
        known += (known.empty() ? "" : ", ") + n;
    mixError(spec, "unknown mix \"" + name + "\" (known: " + known + ")");
}

} // namespace

FitMix
parseFitMix(const std::string &spec)
{
    const size_t star = spec.find('*');
    const std::string name = spec.substr(0, star);
    FitMix mix = namedMix(name, spec);
    if (star != std::string::npos) {
        const std::string digits = spec.substr(star + 1);
        char *end = nullptr;
        const double scale = std::strtod(digits.c_str(), &end);
        if (digits.empty() || end != digits.c_str() + digits.size() ||
            !std::isfinite(scale) || scale <= 0.0)
            mixError(spec, "malformed scale \"" + digits +
                               "\" (expect a positive number)");
        mix.scale = scale;
    }
    return mix;
}

// --- Timelines ------------------------------------------------------

std::vector<LifetimeEvent>
drawEventTimeline(const FitMix &mix, double mission_hours, uint64_t seed)
{
    std::vector<LifetimeEvent> events;
    const double rate = mix.eventsPerHour();
    const double total_fit = mix.totalFit();
    if (rate <= 0.0 || mission_hours <= 0.0)
        return events;

    Rng rng(seed);
    double t = 0.0;
    for (;;) {
        t += rng.nextExponential(rate);
        if (t >= mission_hours)
            break;
        // Joint (class, persistence) pick: one uniform draw over the
        // cumulative unscaled FIT buckets, transient before permanent
        // within each class.
        double pick = rng.nextDouble() * total_fit;
        LifetimeEvent ev;
        ev.hours = t;
        ev.classIndex = uint32_t(mix.classes.size() - 1);
        ev.hard = true;
        for (uint32_t i = 0; i < mix.classes.size(); ++i) {
            const FitClass &c = mix.classes[i];
            if (pick < c.fitTransient) {
                ev.classIndex = i;
                ev.hard = false;
                break;
            }
            pick -= c.fitTransient;
            if (pick < c.fitPermanent) {
                ev.classIndex = i;
                ev.hard = true;
                break;
            }
            pick -= c.fitPermanent;
        }
        events.push_back(ev);
    }
    return events;
}

// --- The engine -----------------------------------------------------

namespace
{

/** Per-trial outcome, reduced in trial order by runLifetime. */
struct TrialOutcome
{
    bool due = false;
    bool sdc = false;
    double observedHours = 0.0;
    int64_t events = 0;
    int64_t hardEvents = 0;
    int64_t correctedEvents = 0;
    int64_t dueEvents = 0;
    int64_t sdcEvents = 0;
    int64_t scrubs = 0;
    int64_t repairs = 0;
};

TrialOutcome
runTrial(const LifetimeParams &p, const DeviceSessionFactory &factory,
         uint64_t trial_seed)
{
    TrialOutcome out;
    out.observedHours = p.missionHours;

    // The timeline and the golden fill are drawn from dedicated
    // kSeedDomainLifetime streams, and event k's injection coordinates
    // from the kSeedDomainInjection stream counted by *event index* —
    // all three independent of the scrub interval and spare budget, so
    // differently-configured devices live through the same history.
    const std::vector<LifetimeEvent> timeline = drawEventTimeline(
        p.mix, p.missionHours, shardSeed(trial_seed, kSeedDomainLifetime, 0));
    out.events = int64_t(timeline.size());
    if (timeline.empty())
        return out; // nothing arrived: trivially survives

    std::unique_ptr<DeviceSession> session =
        factory(shardSeed(trial_seed, kSeedDomainLifetime, 1));
    int spares = p.spareRows;

    size_t i = 0;
    while (i < timeline.size()) {
        // The batch [i, j) = every event sharing event i's scrub
        // window. Empty windows are skipped: scrubbing an already
        // clean-or-stable device is idempotent (a corrected verdict
        // reproduces itself until new faults arrive).
        size_t j = i + 1;
        if (p.scrubIntervalHours > 0.0) {
            const uint64_t window =
                uint64_t(timeline[i].hours / p.scrubIntervalHours);
            while (j < timeline.size() &&
                   uint64_t(timeline[j].hours / p.scrubIntervalHours) ==
                       window)
                ++j;
        }

        for (size_t k = i; k < j; ++k) {
            const LifetimeEvent &ev = timeline[k];
            FaultModel fault = p.mix.classes[ev.classIndex].shape;
            fault.persistence = ev.hard ? FaultPersistence::kStuckAt
                                        : FaultPersistence::kTransient;
            Rng rng(shardSeed(trial_seed, kSeedDomainInjection, k));
            session->inject(fault, rng);
            if (ev.hard)
                ++out.hardEvents;
        }

        ++out.scrubs;
        const DeviceSession::Verdict verdict = session->scrubAndVerify();
        const int64_t batch = int64_t(j - i);
        switch (verdict) {
          case DeviceSession::Verdict::kCorrected:
            out.correctedEvents += batch;
            break;
          case DeviceSession::Verdict::kDue:
            out.dueEvents += batch;
            break;
          case DeviceSession::Verdict::kSdc:
            out.sdcEvents += batch;
            break;
        }
        if (verdict != DeviceSession::Verdict::kCorrected) {
            // Failure time = the failing batch's FIRST arrival: the
            // moment the eventually-fatal damage began accumulating.
            // Anchoring to an event (not the scrub boundary) keeps the
            // failure clock a function of the shared event history;
            // anchoring to the first (not last) event keeps rare
            // scrubbing from inflating MTTF by batching late events
            // into the fatal window.
            out.due = verdict == DeviceSession::Verdict::kDue;
            out.sdc = verdict == DeviceSession::Verdict::kSdc;
            out.observedHours = timeline[i].hours;
            return out;
        }

        // BISR-style repair after a clean scrub: spend spare rows on
        // the most-stuck rows first (ties to the lowest row index).
        if (spares > 0) {
            std::vector<std::pair<size_t, size_t>> stuck =
                session->stuckRows();
            std::sort(stuck.begin(), stuck.end(),
                      [](const auto &a, const auto &b) {
                          return a.second != b.second ? a.second > b.second
                                                      : a.first < b.first;
                      });
            for (const auto &[row, count] : stuck) {
                if (spares == 0)
                    break;
                session->repairRow(row);
                --spares;
                ++out.repairs;
            }
        }
        i = j;
    }
    return out;
}

} // namespace

LifetimeResult
runLifetime(const LifetimeParams &params, const DeviceSessionFactory &factory)
{
    const size_t n = params.trials < 0 ? 0 : size_t(params.trials);
    std::vector<TrialOutcome> outcomes(n);
    parallelFor(n, [&](size_t t) {
        outcomes[t] = runTrial(params, factory, shardSeed(params.seed, t));
    });

    LifetimeResult res;
    for (const TrialOutcome &o : outcomes) {
        ++res.trials;
        res.survived += !o.due && !o.sdc;
        res.dueTrials += o.due;
        res.sdcTrials += o.sdc;
        res.events += o.events;
        res.hardEvents += o.hardEvents;
        res.correctedEvents += o.correctedEvents;
        res.dueEvents += o.dueEvents;
        res.sdcEvents += o.sdcEvents;
        res.scrubs += o.scrubs;
        res.repairs += o.repairs;
        res.deviceHours += o.observedHours;
    }
    return res;
}

double
LifetimeResult::mttfHours() const
{
    if (failures() == 0)
        return std::numeric_limits<double>::infinity();
    return deviceHours / double(failures());
}

double
LifetimeResult::fit() const
{
    if (deviceHours <= 0.0)
        return 0.0;
    return double(failures()) * 1e9 / deviceHours;
}

double
LifetimeResult::survivalRate() const
{
    return trials == 0 ? 1.0 : double(survived) / double(trials);
}

std::string
LifetimeResult::summary() const
{
    char buf[96];
    if (failures() == 0) {
        std::snprintf(buf, sizeof(buf), "mttf inf fit 0 (%d/%d)", survived,
                      trials);
    } else {
        std::snprintf(buf, sizeof(buf), "mttf %.3gh fit %.3g (%d/%d)",
                      mttfHours(), fit(), survived, trials);
    }
    return buf;
}

// --- Caching --------------------------------------------------------

std::string
lifetimeCacheKey(const LifetimeParams &p)
{
    return "lifetime|scheme=" + p.schemeSpec + "|mix=" + p.mix.spec() +
           "|mission=" + exactDouble(p.missionHours) +
           "|scrub=" + exactDouble(p.scrubIntervalHours) +
           "|spares=" + std::to_string(p.spareRows) +
           "|trials=" + std::to_string(p.trials) +
           "|seed=" + std::to_string(p.seed);
}

namespace
{

ResultCache::Record
packLifetime(const LifetimeResult &r)
{
    return ResultCache::Record{
        {r.trials, r.survived, r.dueTrials, r.sdcTrials, r.events,
         r.hardEvents, r.correctedEvents, r.dueEvents, r.sdcEvents,
         r.scrubs, r.repairs},
        {r.deviceHours}};
}

constexpr size_t kLifetimeInts = 11;

LifetimeResult
unpackLifetime(const ResultCache::Record &rec)
{
    LifetimeResult r;
    r.trials = int(rec.ints[0]);
    r.survived = int(rec.ints[1]);
    r.dueTrials = int(rec.ints[2]);
    r.sdcTrials = int(rec.ints[3]);
    r.events = rec.ints[4];
    r.hardEvents = rec.ints[5];
    r.correctedEvents = rec.ints[6];
    r.dueEvents = rec.ints[7];
    r.sdcEvents = rec.ints[8];
    r.scrubs = rec.ints[9];
    r.repairs = rec.ints[10];
    r.deviceHours = rec.reals[0];
    return r;
}

} // namespace

LifetimeResult
cachedLifetime(const LifetimeParams &params,
               const DeviceSessionFactory &factory)
{
    return unpackLifetime(resultCache().memoize(
        lifetimeCacheKey(params),
        [&] { return packLifetime(runLifetime(params, factory)); },
        kLifetimeInts, 1));
}

} // namespace tdc
