/**
 * @file
 * Time-evolving lifetime/FIT reliability engine.
 *
 * Every injection campaign in the repository fires a fixed event count
 * and recovers once; this engine instead evolves one protected device
 * over mission time. Fault events arrive as a Poisson process whose
 * rate is the sum of per-fault-class FIT rates (failures per 1e9
 * device-hours, the FaultSim/Jaguar convention), each class pairing a
 * FaultModel footprint with a transient and a permanent rate.
 * Transient events flip stored bits; permanent events accumulate as
 * stuck-at rows/cols/cells. The device is scrubbed at a configurable
 * interval (0 = check on every event, the paper's per-read limit), a
 * spare-row budget repairs accumulated stuck rows after every clean
 * scrub, and each event batch is classified corrected / DUE / SDC by
 * the scrub verdict. The trial aggregate yields MTTF and FIT per
 * scheme, and the whole evaluation is a pure function of its
 * parameters: timelines, golden fills, and per-event injection
 * randomness derive from counter-based shardSeed streams that are
 * independent of the scrub interval and spare budget — so results are
 * bit-identical at any TDC_THREADS x TDC_SIMD setting, and more
 * scrubbing / more spares face the *same* event history.
 *
 * The engine lives in reliability/ below the scheme registry, so it
 * sees devices only through the DeviceSession interface; the scheme
 * layer implements one session per family (scheme/scheme.hh:
 * ProtectionScheme::openSession, openLifetimeSession,
 * cachedSchemeLifetime).
 */

#ifndef TDC_RELIABILITY_LIFETIME_HH
#define TDC_RELIABILITY_LIFETIME_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/fault.hh"
#include "common/rng.hh"

namespace tdc
{

/**
 * One device under test: a per-trial session over a protected array,
 * holding the golden data it was filled with. The lifetime engine
 * drives it with inject / scrubAndVerify / repairRow over mission
 * time; the scheme layer's injection trials drive the same session
 * through one inject + scrubAndVerify. Every scheme family (conv/wt,
 * 2d, prod, dram) implements exactly one session, its only device
 * model.
 */
class DeviceSession
{
  public:
    /** Classification of one scrub over the accumulated error state. */
    enum class Verdict
    {
        /** Every word read back equal to the golden data. */
        kCorrected,
        /** Uncorrectable but detected: data loss is flagged (DUE). */
        kDue,
        /** At least one word wrong with no error flagged (silent). */
        kSdc,
    };

    virtual ~DeviceSession() = default;

    /** The device's physical cells: where every fault lands. */
    virtual MemoryArray &cells() = 0;

    /** Realize one @p fault event (shape + persistence) on cells(),
     *  drawing any unanchored coordinates from @p rng. */
    void inject(const FaultModel &fault, Rng &rng)
    {
        FaultInjector(rng).inject(cells(), fault);
    }

    /** Run the scheme's scrub/recovery machinery, then verify every
     *  word against the golden data and classify the outcome. */
    virtual Verdict scrubAndVerify() = 0;

    /** Repair units currently holding stuck-at cells, as (unit,
     *  stuck-cell count) sorted by unit: by default the rows of
     *  cells() (MemoryArray::stuckRows). */
    virtual std::vector<std::pair<size_t, size_t>> stuckRows()
    {
        return cells().stuckRows();
    }

    /**
     * Map row @p row out to a spare: clear its stuck-at overlay and
     * rewrite the row's golden content through the scheme's write path
     * (legitimate — repair runs only after a corrected scrub, when the
     * scheme demonstrably still delivers every word's data).
     */
    virtual void repairRow(size_t row) = 0;
};

/** Builds a fresh session whose golden fill derives from @p seed. */
using DeviceSessionFactory =
    std::function<std::unique_ptr<DeviceSession>(uint64_t seed)>;

/** One fault class of a FIT mix: a footprint plus its arrival rates. */
struct FitClass
{
    /** Short label ("bit", "word", "column", ...). */
    std::string label;

    /** Event footprint; persistence is overridden per arrival. */
    FaultModel shape;

    /** Transient-arrival rate, failures per 1e9 device-hours. */
    double fitTransient = 0.0;

    /** Permanent (stuck-at) arrival rate, same unit. */
    double fitPermanent = 0.0;
};

/**
 * A named per-fault-class FIT mix with an acceleration scale. The
 * canonical spec is "<name>" or "<name>*<scale>" (exactDouble
 * round-trip), e.g. "jaguar*10000" — the mix axis of lifetime cache
 * keys and the --fit-mix grammar. Scales model accelerated testing:
 * real FIT rates produce ~1e-3 events over a 5-year mission, so the
 * observable-event regimes the figures explore run the same mix a few
 * decades hotter.
 */
struct FitMix
{
    /** Registered mix name ("jaguar", "transient", ...). */
    std::string base = "jaguar";

    /** Rate multiplier applied to every class (accelerated testing). */
    double scale = 1.0;

    std::vector<FitClass> classes;

    /** Canonical spec: base, "*<scale>" appended when scale != 1. */
    std::string spec() const;

    /** Sum of unscaled transient FITs over the classes. */
    double totalFitTransient() const;

    /** Sum of unscaled permanent FITs over the classes. */
    double totalFitPermanent() const;

    double totalFit() const
    {
        return totalFitTransient() + totalFitPermanent();
    }

    /** Scaled total arrival rate in events per device-hour. */
    double eventsPerHour() const { return totalFit() * scale / 1e9; }
};

/**
 * The FaultSim Jaguar field-failure mix: seven fault classes (bit,
 * word, column, row, bank, multi-bank, multi-rank) with the published
 * fit_transient = {14.2, 1.4, 1.4, 0.2, 0.8, 0.3, 0.9} and
 * fit_permanent = {18.6, 0.3, 5.6, 8.2, 10.0, 1.4, 2.8} per-class
 * rates, mapped onto the repository's FaultModel footprints.
 */
FitMix jaguarFitMix(double scale = 1.0);

/** Registered mix names accepted by parseFitMix. */
std::vector<std::string> fitMixNames();

/**
 * Parse a FIT-mix spec "<name>[*<scale>]" (the --fit-mix axis):
 * "jaguar", "transient" / "permanent" (the Jaguar mix restricted to
 * one persistence), "single" (single-bit-only, equal rates). Scale
 * accepts scientific notation ("jaguar*1e4"); the canonical spec()
 * re-spells it exactly. Malformed names or non-positive scales throw
 * std::invalid_argument quoting the offending token.
 */
FitMix parseFitMix(const std::string &spec);

/** One Poisson arrival on a device timeline. */
struct LifetimeEvent
{
    /** Arrival time in device-hours since mission start. */
    double hours = 0.0;

    /** Index into FitMix::classes. */
    uint32_t classIndex = 0;

    /** Permanent (stuck-at) manifestation vs transient flip. */
    bool hard = false;
};

/**
 * Draw one trial's full event timeline: exponential inter-arrivals at
 * the mix's scaled total rate, each arrival's (class, persistence)
 * picked from the cumulative per-class rate buckets. A pure function
 * of (mix, mission, seed) — notably independent of scrub interval and
 * spare budget, the anchor of the engine's monotonicity properties.
 */
std::vector<LifetimeEvent> drawEventTimeline(const FitMix &mix,
                                             double mission_hours,
                                             uint64_t seed);

/** Parameters of one lifetime evaluation (one campaign cell). */
struct LifetimeParams
{
    /** Canonical ProtectionScheme::spec() — cache key + labels only;
     *  the device itself comes from the session factory. */
    std::string schemeSpec;

    FitMix mix;

    /** Mission time per trial in device-hours (default: 5 years). */
    double missionHours = 5.0 * 8760.0;

    /** Hours between scrubs; 0 = check after every event (the
     *  per-read limit of the paper's Section 2.1). */
    double scrubIntervalHours = 24.0;

    /** Spare rows available per trial for stuck-row repair. */
    int spareRows = 0;

    int trials = 200;

    uint64_t seed = 12345;
};

/** Aggregate outcome of a lifetime evaluation. */
struct LifetimeResult
{
    int trials = 0;

    /** Trials that reached mission end without data loss. */
    int survived = 0;

    /** Trials ending in a detected-uncorrectable scrub (DUE). */
    int dueTrials = 0;

    /** Trials ending in silent data corruption. */
    int sdcTrials = 0;

    /** Total fault events injected across trials. */
    int64_t events = 0;

    /** Events with permanent (stuck-at) manifestation. */
    int64_t hardEvents = 0;

    /** Events classified by their window's scrub verdict. */
    int64_t correctedEvents = 0;
    int64_t dueEvents = 0;
    int64_t sdcEvents = 0;

    /** Scrub passes executed (only non-empty windows are scrubbed). */
    int64_t scrubs = 0;

    /** Spare-row repairs performed. */
    int64_t repairs = 0;

    /**
     * Observed device-hours summed over trials: mission time for
     * survivors, the failing event's arrival time for failures — the
     * exposure denominator of the censored MTTF/FIT estimators.
     */
    double deviceHours = 0.0;

    int failures() const { return dueTrials + sdcTrials; }

    /** Censored exponential estimate: observed hours per failure
     *  (infinity when no trial failed). */
    double mttfHours() const;

    /** Failures per 1e9 device-hours (0 when nothing was observed). */
    double fit() const;

    /** Campaign-cell rendering: "mttf 4.2e+03h fit 2.4e+05 (187/200)". */
    std::string summary() const;

    bool operator==(const LifetimeResult &) const = default;
};

/**
 * Evaluate @p params against devices built by @p factory. Trials shard
 * over the worker pool; trial t derives every stream from
 * shardSeed(seed, t) under kSeedDomainLifetime (timeline, golden fill)
 * and kSeedDomainInjection (event k's coordinates, counted by event
 * index — NOT by scrub window), and the per-trial outcomes reduce in
 * trial order. Bit-identical at any TDC_THREADS setting.
 */
LifetimeResult runLifetime(const LifetimeParams &params,
                           const DeviceSessionFactory &factory);

/**
 * runLifetime through the campaign result cache, keyed by
 * lifetimeCacheKey(params). @p factory must realize exactly the scheme
 * params.schemeSpec names (the scheme layer's cachedSchemeLifetime
 * guarantees this); the cached result is then bit-identical to a cold
 * run for the same reason injection cells are.
 */
LifetimeResult cachedLifetime(const LifetimeParams &params,
                              const DeviceSessionFactory &factory);

/** Canonical cache key of one lifetime cell ("lifetime|scheme=..."). */
std::string lifetimeCacheKey(const LifetimeParams &params);

} // namespace tdc

#endif // TDC_RELIABILITY_LIFETIME_HH
