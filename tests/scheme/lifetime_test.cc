/**
 * @file
 * The lifetime/FIT engine contract:
 *  - FIT-mix specs round-trip canonically and malformed specs throw
 *    with the offending token quoted;
 *  - event timelines are pure functions of (mix, mission, seed),
 *    ordered, in-range, and scale with the acceleration factor;
 *  - runLifetime is bit-identical at TDC_THREADS {1, 2, 4, 8} and
 *    equals a serial oracle that re-implements the documented trial
 *    loop through the public API;
 *  - cachedSchemeLifetime replays from the result cache exactly;
 *  - more scrubbing and more spares never make MTTF worse (the
 *    paired-event-history monotonicity the figure tables rely on);
 *  - under a single-bit transient mix over SECDED words, simulated
 *    survival agrees with ScrubModel's closed form, tying the analytic
 *    scrub model (ablation 6) to the simulated engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "reliability/lifetime.hh"
#include "reliability/result_cache.hh"
#include "reliability/scrub_model.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

LifetimeParams
baseParams(double scrub_hours, int spares)
{
    LifetimeParams p;
    p.mix = parseFitMix("jaguar*10000");
    p.missionHours = 5.0 * 8760.0;
    p.scrubIntervalHours = scrub_hours;
    p.spareRows = spares;
    p.trials = 32;
    p.seed = 4242;
    return p;
}

LifetimeResult
runScheme(const std::string &spec, const LifetimeParams &base)
{
    const SchemePtr scheme = parseScheme(spec);
    LifetimeParams p = base;
    p.schemeSpec = scheme->spec();
    return runLifetime(p, [&](uint64_t seed) {
        return scheme->openLifetimeSession(seed);
    });
}

TEST(FitMix, SpecsRoundTripCanonically)
{
    EXPECT_EQ(parseFitMix("jaguar").spec(), "jaguar");
    EXPECT_EQ(parseFitMix("jaguar*10000").spec(), "jaguar*10000");
    EXPECT_EQ(parseFitMix("single*2.5").spec(), "single*2.5");
    // Scientific notation is accepted and re-spelled exactly.
    EXPECT_EQ(parseFitMix("transient*1e4").spec(), "transient*10000");
}

TEST(FitMix, JaguarRatesMatchThePublishedMix)
{
    const FitMix mix = jaguarFitMix();
    ASSERT_EQ(mix.classes.size(), 7u);
    EXPECT_NEAR(mix.totalFitTransient(), 19.2, 1e-9);
    EXPECT_NEAR(mix.totalFitPermanent(), 46.9, 1e-9);
    EXPECT_NEAR(mix.totalFit(), 66.1, 1e-9);
}

TEST(FitMix, RestrictedMixesZeroTheOtherPersistence)
{
    EXPECT_DOUBLE_EQ(parseFitMix("transient").totalFitPermanent(), 0.0);
    EXPECT_GT(parseFitMix("transient").totalFitTransient(), 0.0);
    EXPECT_DOUBLE_EQ(parseFitMix("permanent").totalFitTransient(), 0.0);
    EXPECT_GT(parseFitMix("permanent").totalFitPermanent(), 0.0);
}

TEST(FitMix, MalformedSpecsQuoteTheToken)
{
    try {
        parseFitMix("bogus*3");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("\"bogus*3\""),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(parseFitMix("jaguar*0"), std::invalid_argument);
    EXPECT_THROW(parseFitMix("jaguar*-2"), std::invalid_argument);
    EXPECT_THROW(parseFitMix("jaguar*nope"), std::invalid_argument);
    EXPECT_THROW(parseFitMix(""), std::invalid_argument);
}

TEST(LifetimeTimeline, PureFunctionOfMixMissionSeed)
{
    const FitMix mix = parseFitMix("jaguar*10000");
    const std::vector<LifetimeEvent> a =
        drawEventTimeline(mix, 43800.0, 77);
    const std::vector<LifetimeEvent> b =
        drawEventTimeline(mix, 43800.0, 77);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].hours, b[i].hours);
        EXPECT_EQ(a[i].classIndex, b[i].classIndex);
        EXPECT_EQ(a[i].hard, b[i].hard);
    }
    EXPECT_FALSE(a.empty());
    double prev = 0.0;
    for (const LifetimeEvent &ev : a) {
        EXPECT_GE(ev.hours, prev);
        EXPECT_LT(ev.hours, 43800.0);
        EXPECT_LT(ev.classIndex, mix.classes.size());
        prev = ev.hours;
    }
}

TEST(LifetimeTimeline, EventCountTracksTheAcceleration)
{
    const double mission = 43800.0;
    const FitMix mix = parseFitMix("jaguar*10000");
    const double expected = mix.eventsPerHour() * mission; // ~29
    const double n =
        double(drawEventTimeline(mix, mission, 11).size());
    EXPECT_GT(n, expected * 0.5);
    EXPECT_LT(n, expected * 1.5);
    // An empty mission draws nothing.
    EXPECT_TRUE(drawEventTimeline(mix, 0.0, 11).empty());
}

TEST(LifetimeEngine, BitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const LifetimeResult one =
        runScheme("conv:secded/i4/r64", baseParams(168.0, 2));
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        const LifetimeResult again =
            runScheme("conv:secded/i4/r64", baseParams(168.0, 2));
        EXPECT_EQ(again, one) << threads;
    }
}

TEST(LifetimeEngine, MatchesASerialOracle)
{
    // Re-implement the documented trial loop through the public API:
    // timeline and golden fill from the kSeedDomainLifetime streams,
    // event k's coordinates from the kSeedDomainInjection stream
    // counted by event index, windows batched by floor(hours / T),
    // failure clock = the failing window's first arrival, spare repair
    // (most-stuck first, ties to the low row) after clean scrubs only.
    const SchemePtr scheme = parseScheme("conv:secded/i4/r64");
    LifetimeParams p = baseParams(168.0, 2);
    p.schemeSpec = scheme->spec();

    LifetimeResult oracle;
    for (int t = 0; t < p.trials; ++t) {
        const uint64_t trial_seed = shardSeed(p.seed, uint64_t(t));
        const std::vector<LifetimeEvent> timeline = drawEventTimeline(
            p.mix, p.missionHours,
            shardSeed(trial_seed, kSeedDomainLifetime, 0));
        ++oracle.trials;
        oracle.events += int64_t(timeline.size());
        double observed = p.missionHours;
        bool due = false, sdc = false;
        if (!timeline.empty()) {
            std::unique_ptr<DeviceSession> dev =
                scheme->openLifetimeSession(
                    shardSeed(trial_seed, kSeedDomainLifetime, 1));
            int spares = p.spareRows;
            size_t i = 0;
            while (i < timeline.size()) {
                size_t j = i + 1;
                const uint64_t window = uint64_t(
                    timeline[i].hours / p.scrubIntervalHours);
                while (j < timeline.size() &&
                       uint64_t(timeline[j].hours /
                                p.scrubIntervalHours) == window)
                    ++j;
                for (size_t k = i; k < j; ++k) {
                    FaultModel fault =
                        p.mix.classes[timeline[k].classIndex].shape;
                    fault.persistence =
                        timeline[k].hard ? FaultPersistence::kStuckAt
                                         : FaultPersistence::kTransient;
                    Rng rng(shardSeed(trial_seed, kSeedDomainInjection,
                                      uint64_t(k)));
                    dev->inject(fault, rng);
                    oracle.hardEvents += timeline[k].hard;
                }
                ++oracle.scrubs;
                const DeviceSession::Verdict v = dev->scrubAndVerify();
                const int64_t batch = int64_t(j - i);
                if (v == DeviceSession::Verdict::kCorrected)
                    oracle.correctedEvents += batch;
                else if (v == DeviceSession::Verdict::kDue)
                    oracle.dueEvents += batch;
                else
                    oracle.sdcEvents += batch;
                if (v != DeviceSession::Verdict::kCorrected) {
                    due = v == DeviceSession::Verdict::kDue;
                    sdc = v == DeviceSession::Verdict::kSdc;
                    observed = timeline[i].hours;
                    break;
                }
                if (spares > 0) {
                    std::vector<std::pair<size_t, size_t>> stuck =
                        dev->stuckRows();
                    std::sort(stuck.begin(), stuck.end(),
                              [](const auto &a, const auto &b) {
                                  return a.second != b.second
                                             ? a.second > b.second
                                             : a.first < b.first;
                              });
                    for (const auto &[row, count] : stuck) {
                        if (spares == 0)
                            break;
                        dev->repairRow(row);
                        --spares;
                        ++oracle.repairs;
                    }
                }
                i = j;
            }
        }
        oracle.survived += !due && !sdc;
        oracle.dueTrials += due;
        oracle.sdcTrials += sdc;
        oracle.deviceHours += observed;
    }

    ThreadGuard guard;
    setParallelThreads(4);
    const LifetimeResult engine =
        runLifetime(p, [&](uint64_t seed) {
            return scheme->openLifetimeSession(seed);
        });
    EXPECT_EQ(engine, oracle);
}

TEST(LifetimeEngine, MoreScrubbingIsNeverWorse)
{
    // Nested intervals (720 = 30 * 24; 0 refines everything) over the
    // same event histories: shrinking the accumulation window can only
    // move failures later or prevent them.
    const LifetimeResult monthly =
        runScheme("conv:secded/i4/r64", baseParams(720.0, 0));
    const LifetimeResult daily =
        runScheme("conv:secded/i4/r64", baseParams(24.0, 0));
    const LifetimeResult per_event =
        runScheme("conv:secded/i4/r64", baseParams(0.0, 0));
    EXPECT_LE(daily.failures(), monthly.failures());
    EXPECT_LE(per_event.failures(), daily.failures());
    EXPECT_GE(daily.deviceHours, monthly.deviceHours);
    EXPECT_GE(per_event.deviceHours, daily.deviceHours);
}

TEST(LifetimeEngine, MoreSparesAreNeverWorse)
{
    const LifetimeResult none =
        runScheme("conv:secded/i4/r64", baseParams(168.0, 0));
    const LifetimeResult some =
        runScheme("conv:secded/i4/r64", baseParams(168.0, 2));
    const LifetimeResult many =
        runScheme("conv:secded/i4/r64", baseParams(168.0, 8));
    EXPECT_LE(some.failures(), none.failures());
    EXPECT_LE(many.failures(), some.failures());
    EXPECT_GE(some.deviceHours, none.deviceHours);
    EXPECT_GE(many.deviceHours, some.deviceHours);
    EXPECT_GE(many.repairs, some.repairs);
    EXPECT_EQ(none.repairs, 0);
    // The shared timeline makes the comparison paired, not just
    // statistical: every configuration faced identical arrivals (and a
    // longer-lived device can only inject more of its timeline).
    EXPECT_EQ(none.events, many.events);
    EXPECT_GE(some.hardEvents, none.hardEvents);
    EXPECT_GE(many.hardEvents, some.hardEvents);
}

TEST(LifetimeEngine, SurvivalMatchesTheScrubModelClosedForm)
{
    // conv:secded/i1/r64 is 64 words of 72 bits, one word per row, and
    // a single-bit transient mix makes data loss exactly what
    // ScrubModel counts: a second upset in a word since its last
    // scrub. FIT 1 scaled by 7.2e7 gives 0.072 upsets per hour.
    FitMix mix;
    mix.base = "bit";
    mix.scale = 7.2e7;
    mix.classes = {{"bit", FaultModel::singleBit(), 1.0, 0.0}};
    const double mission = 720.0;
    const int trials = 2000;
    for (double interval : {6.0, 24.0}) {
        LifetimeParams p;
        p.mix = mix;
        p.missionHours = mission;
        p.scrubIntervalHours = interval;
        p.trials = trials;
        const double simulated =
            runScheme("conv:secded/i1/r64", p).survivalRate();

        ScrubParams sp;
        sp.words = 64;
        sp.errorsPerHour = mix.eventsPerHour();
        sp.scrubIntervalHours = interval;
        const double analytic =
            ScrubModel(sp).survivalProbability(mission);

        // Binomial standard error of a survival rate over the trials.
        // The simulation reads slightly high: two upsets on the same
        // bit cancel (about 1 in 72 double hits), which the closed
        // form counts as a loss.
        const double sigma =
            std::sqrt(analytic * (1.0 - analytic) / double(trials));
        EXPECT_NEAR(simulated, analytic, 4.0 * sigma)
            << "scrub interval " << interval << " h";
    }
}

TEST(LifetimeEngine, EverySchemeFamilyOpensASession)
{
    for (const std::string spec :
         {"conv:secded/i4/r64", "wt:edc8/i4/r64", "2d:edc8/i4+vp32/r64",
          "prod:64x64"}) {
        LifetimeParams p = baseParams(168.0, 0);
        p.trials = 8;
        const LifetimeResult res = runScheme(spec, p);
        EXPECT_EQ(res.trials, 8) << spec;
        EXPECT_GT(res.events, 0) << spec;
        EXPECT_GT(res.scrubs, 0) << spec;
        EXPECT_GT(res.deviceHours, 0.0) << spec;
    }
}

TEST(LifetimeEngine, CachedEqualsDirect)
{
    resultCache().setDirectory("");
    resultCache().clearMemory();
    resultCache().resetStats();

    const SchemePtr scheme = parseScheme("2d:edc8/i4+vp32/r64");
    LifetimeParams p = baseParams(168.0, 0);
    p.trials = 12;
    p.schemeSpec = scheme->spec();
    const LifetimeResult direct = runLifetime(p, [&](uint64_t seed) {
        return scheme->openLifetimeSession(seed);
    });

    const LifetimeResult cold = cachedSchemeLifetime(*scheme, p);
    EXPECT_EQ(cold, direct);
    EXPECT_GE(resultCache().stats().misses, 1u);

    const LifetimeResult warm = cachedSchemeLifetime(*scheme, p);
    EXPECT_EQ(warm, direct);
    EXPECT_GE(resultCache().stats().memoryHits, 1u);
    resultCache().clearMemory();
}

TEST(LifetimeEngine, CacheKeyNamesEveryAxis)
{
    LifetimeParams p = baseParams(168.0, 3);
    p.schemeSpec = "conv:secded/i4/r64";
    const std::string key = lifetimeCacheKey(p);
    EXPECT_NE(key.find("lifetime|"), std::string::npos);
    EXPECT_NE(key.find("scheme=conv:secded/i4/r64"), std::string::npos);
    EXPECT_NE(key.find("mix=jaguar*10000"), std::string::npos);
    EXPECT_NE(key.find("scrub=168"), std::string::npos);
    EXPECT_NE(key.find("spares=3"), std::string::npos);
    EXPECT_NE(key.find("trials=32"), std::string::npos);
    EXPECT_NE(key.find("seed=4242"), std::string::npos);
    // Every axis changes the key.
    for (const auto &mutate :
         std::vector<std::function<void(LifetimeParams &)>>{
             [](LifetimeParams &q) { q.schemeSpec = "prod:64x64"; },
             [](LifetimeParams &q) { q.mix = parseFitMix("single"); },
             [](LifetimeParams &q) { q.missionHours = 100.0; },
             [](LifetimeParams &q) { q.scrubIntervalHours = 0.0; },
             [](LifetimeParams &q) { q.spareRows = 0; },
             [](LifetimeParams &q) { q.trials = 1; },
             [](LifetimeParams &q) { q.seed = 1; }}) {
        LifetimeParams q = p;
        mutate(q);
        EXPECT_NE(lifetimeCacheKey(q), key);
    }
}

TEST(LifetimeResultMath, EstimatorsHandleTheEdges)
{
    LifetimeResult r;
    EXPECT_EQ(r.failures(), 0);
    EXPECT_TRUE(std::isinf(r.mttfHours()));
    EXPECT_EQ(r.fit(), 0.0);
    EXPECT_EQ(r.survivalRate(), 1.0);
    EXPECT_EQ(r.summary().find("mttf inf"), 0u);

    r.trials = 4;
    r.survived = 2;
    r.dueTrials = 1;
    r.sdcTrials = 1;
    r.deviceHours = 2000.0;
    EXPECT_EQ(r.failures(), 2);
    EXPECT_DOUBLE_EQ(r.mttfHours(), 1000.0);
    EXPECT_DOUBLE_EQ(r.fit(), 2e9 / 2000.0);
    EXPECT_DOUBLE_EQ(r.survivalRate(), 0.5);
    EXPECT_NE(r.summary().find("(2/4)"), std::string::npos);
}

} // namespace
} // namespace tdc
