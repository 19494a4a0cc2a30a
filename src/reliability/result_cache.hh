/**
 * @file
 * Persistent, content-addressed campaign result cache.
 *
 * Every Monte-Carlo cell in the repository is a pure function of its
 * canonical description — (scheme spec, fault spec, trials, seed) for
 * injection campaigns, (model params, trials, seed) for yield sweeps,
 * (scheme, geometry, objective) for analytic cost cells — because all
 * randomness is counter-seeded (common/parallel.hh). That purity makes
 * cell results memoizable at campaign level: the cache keys each cell
 * by a StableHash of its canonical key string plus a format-version
 * salt, and stores the *raw numeric outcome* (never formatted table
 * strings), so a repeated figure run or a design-space search replays
 * in milliseconds instead of re-running the Monte Carlo.
 *
 * Two tiers:
 *  - an in-memory map, always on, shared by every campaign in the
 *    process (thread-safe; campaign cells evaluate under parallelFor);
 *  - an optional on-disk store (--cache-dir / TDC_CACHE_DIR), one
 *    small file per entry named by the key digest, written atomically
 *    via rename so concurrent writer processes sharing a directory
 *    never observe torn entries.
 *
 * Entry files are versioned and self-verifying (magic + salt + full
 * key echo + checksum). A corrupt, truncated, stale-version, or
 * digest-colliding entry is counted and silently treated as a miss —
 * the cell recomputes and the entry is rewritten. Cached results are
 * bit-identical to cold results by construction at any TDC_THREADS x
 * TDC_SIMD setting, because what is stored is exactly the value the
 * pure evaluator returns.
 */

#ifndef TDC_RELIABILITY_RESULT_CACHE_HH
#define TDC_RELIABILITY_RESULT_CACHE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace tdc
{

/** Outcome counters of one injection campaign (summed in trial order).
 *  Lives here (not in scheme/) so the cache and the campaign grid can
 *  carry raw outcomes without depending on the scheme registry. */
struct InjectionOutcome
{
    int trials = 0;
    /** Array repaired and every word read back equal to the golden data. */
    int corrected = 0;
    /** Not repaired, but every wrong word was flagged (no silent loss). */
    int detectedOnly = 0;
    /** At least one word read back wrong without any error flagged. */
    int silent = 0;

    /** Coverage verdict string used by the figure tables. */
    std::string verdict() const;

    /** Verdict plus the corrected/trials ratio ("corrected 50/50"). */
    std::string summary() const;

    bool operator==(const InjectionOutcome &) const = default;
};

/** Running cache counters (monotonic per ResultCache instance). */
struct CacheStats
{
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t misses = 0;
    uint64_t stored = 0;   ///< entries written to the disk tier
    uint64_t corrupt = 0;  ///< corrupt/stale/mismatched entries dropped

    uint64_t hits() const { return memoryHits + diskHits; }

    /** One-line human summary ("3 hits (2 memory, 1 disk), ..."). */
    std::string describe() const;

    bool operator==(const CacheStats &) const = default;
};

/**
 * The two-tier content-addressed cache. Values are small generic
 * records (integer counters + IEEE-754-exact doubles) so injection
 * outcomes, yield fractions, and cost-model triples all share one
 * store and one on-disk format.
 */
class ResultCache
{
  public:
    /** Disk-format version salt: bump on any change to the entry
     *  layout or to the meaning of any cached value. Old entries are
     *  then detected stale and silently recomputed. */
    static constexpr uint32_t kFormatVersion = 1;

    /** Generic cached payload. */
    struct Record
    {
        std::vector<int64_t> ints;
        std::vector<double> reals;

        bool operator==(const Record &) const = default;
    };

    /** @p dir enables the disk tier ("" = in-memory only). */
    explicit ResultCache(std::string dir = "");

    /** Point the disk tier at @p dir (created on first store; "" turns
     *  the disk tier off). The in-memory tier is unaffected. */
    void setDirectory(std::string dir);

    /** Look @p key up in memory, then on disk. */
    std::optional<Record> lookup(const std::string &key);

    /** Store in memory and (when enabled) on disk. */
    void store(const std::string &key, const Record &record);

    /**
     * Memoize: return the cached record for @p key, or run
     * @p compute, store its result, and return it. @p compute must be
     * a pure function of the key. Safe to call concurrently (two
     * racing threads may both compute; both store the identical
     * record).
     */
    Record memoize(const std::string &key,
                   const std::function<Record()> &compute);

    /**
     * memoize() for records of a fixed shape. A cached record holding
     * other than @p num_ints integers and @p num_reals doubles (a
     * foreign record type under this key) counts as corrupt, and is
     * recomputed and overwritten rather than trusted.
     */
    Record memoize(const std::string &key,
                   const std::function<Record()> &compute,
                   size_t num_ints, size_t num_reals);

    /** memoize() specialized to injection outcomes. */
    InjectionOutcome
    outcome(const std::string &key,
            const std::function<InjectionOutcome()> &compute);

    /**
     * memoize() specialized to a fixed-width vector of doubles (e.g. a
     * cost-model triple). A cached record whose width differs from
     * @p count is treated as corrupt and recomputed.
     */
    std::vector<double>
    reals(const std::string &key, size_t count,
          const std::function<std::vector<double>()> &compute);

    CacheStats stats() const;

    /** Zero the counters (the entries stay). */
    void resetStats();

    /** Drop the in-memory tier (the disk tier stays). Tests use this
     *  to model a fresh process against a warm directory. */
    void clearMemory();

    /** The on-disk file name (digest + extension) @p key maps to. */
    static std::string entryFileName(const std::string &key);

  private:
    std::optional<Record> loadFromDisk(const std::string &key);
    void storeToDisk(const std::string &key, const Record &record);

    mutable std::mutex mutex_;
    std::string dir_;
    std::unordered_map<std::string, Record> memory_;
    CacheStats stats_;
};

/**
 * The process-wide cache every campaign layer shares. Its disk tier
 * starts at $TDC_CACHE_DIR when that is set and non-empty, else off;
 * the tdc_run --cache-dir flag re-points it via setDirectory().
 */
ResultCache &resultCache();

/**
 * Canonical cache key of one injection-campaign cell. The scheme and
 * fault strings must be *canonical* specs (ProtectionScheme::spec(),
 * FaultModel::spec()) so equivalent spellings share an entry.
 */
std::string injectionCacheKey(const std::string &scheme_spec,
                              const std::string &fault_spec, int trials,
                              uint64_t seed);

} // namespace tdc

#endif // TDC_RELIABILITY_RESULT_CACHE_HH
