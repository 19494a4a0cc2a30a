/**
 * @file
 * The request-stream front end of the study: a sharded cache service
 * that serves millions of timestamped read/write requests against
 * shards of independently 2D-protected banks (the paper deploys the
 * scheme per bank: "32 parity rows per cache bank"), with the paper's
 * read-before-write port stealing and asynchronous background scrub +
 * fault arrival competing for port slots under live traffic —
 * reporting throughput and p50/p99/p999 latency next to the
 * reliability verdicts (corrected / DUE / SDC).
 *
 * Sharding and determinism: requests partition by address (shard =
 * address mod shards); each shard owns its own banks, port scheduler,
 * histogram, and counter-based RNG streams, and shards run over the
 * common/parallel worker pool. Every per-shard outcome is a pure
 * function of (config, that shard's request subsequence), and shard
 * reports merge in ascending shard order — so the full report is
 * bit-identical at any TDC_THREADS setting.
 *
 * Streaming: serve() reads a RequestSource (service/request.hh) once,
 * one block of kRequestBlock requests at a time, checking each address
 * and tracking the tick span as it partitions the block. What a run
 * holds is its banks plus one block and its shard partition, whatever
 * the stream's length (/n). Per-request outcomes go to an optional
 * observer as they are served; the service keeps none of them.
 */

#ifndef TDC_SERVICE_CACHE_SERVICE_HH
#define TDC_SERVICE_CACHE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "array/fault.hh"
#include "common/table.hh"
#include "core/twod_array.hh"
#include "service/latency_histogram.hh"
#include "service/request.hh"

namespace tdc
{

/** Configuration of one cache-service instance. */
struct ServiceConfig
{
    /** Per-bank 2D protection (the --scheme 2d:... axis). */
    TwoDimConfig bank = TwoDimConfig::l1Default();

    size_t banksPerShard = 4;
    size_t shards = 4;

    /** Port slots per cycle per shard. */
    unsigned ports = 1;

    /** Idle-slot window the RBW read may steal from (0 disables). */
    unsigned stealWindow = 8;

    /**
     * Ticks between background scrub steps (one row readback per
     * step, walking banks round-robin); 0 disables scrubbing. Scrub
     * reads ride idle port slots like stolen RBW reads.
     */
    uint64_t scrubInterval = 0;

    /** Ticks between injected fault events; 0 disables injection. */
    uint64_t faultInterval = 0;

    /** Fault model of the online events (the --fault axis). */
    FaultModel fault = FaultModel::singleBit();

    /** Base seed; every stream derives via domain-separated shards. */
    uint64_t seed = 12345;

    /** Largest totalWords() a service may hold (1024x the default). */
    static constexpr size_t kMaxTotalWords = size_t(1) << 24;

    /** Words of the whole service (the request address space). */
    size_t totalWords() const
    {
        return shards * banksPerShard * bank.dataRows *
               bank.interleaveDegree;
    }
};

/** Per-request result, passed to a RequestObserver. */
struct RequestOutcome
{
    uint32_t latency = 0;             ///< cycles, queueing included
    DecodeStatus status = DecodeStatus::kClean;
    bool silent = false;              ///< read returned wrong data unflagged

    bool operator==(const RequestOutcome &) const = default;
};

/**
 * Called once per served request with its index in the stream and its
 * outcome. Shard workers call it concurrently, each index exactly once
 * and each shard's indices in arrival order, so an observer that
 * writes only to slot @p index needs no lock.
 */
using RequestObserver =
    std::function<void(uint64_t index, const RequestOutcome &outcome)>;

/** Scalar service counters (merged field-wise, shard order). */
struct ServiceCounters
{
    uint64_t requests = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rbwAbsorbed = 0;  ///< RBW reads hidden by port stealing
    uint64_t rbwCharged = 0;   ///< RBW reads that cost a demand slot
    uint64_t portDelay = 0;    ///< summed queueing delay, cycles
    uint64_t corrected = 0;    ///< reads repaired (in-line or sweep)
    uint64_t due = 0;          ///< detected-uncorrectable reads
    uint64_t sdc = 0;          ///< silently wrong reads
    uint64_t recoveries = 0;   ///< demand-read-triggered sweeps
    uint64_t recoveryRowReads = 0; ///< latency charged to those sweeps
    uint64_t scrubSteps = 0;
    uint64_t scrubRepairs = 0; ///< scrub reads that fixed something
    uint64_t scrubDue = 0;     ///< scrub reads left uncorrectable
    uint64_t faultEvents = 0;

    ServiceCounters &operator+=(const ServiceCounters &o);
    bool operator==(const ServiceCounters &) const = default;
};

/** One shard's slice of the report. */
struct ShardServiceReport
{
    ServiceCounters counters;
    LatencyHistogram latency;
    TwoDimStats store; ///< the shard's bank stats, merged in bank order

    bool operator==(const ShardServiceReport &) const = default;
};

/** Full service run outcome. */
struct ServiceReport
{
    std::vector<ShardServiceReport> shards; ///< ascending shard order
    ShardServiceReport total;               ///< merged in shard order
    uint64_t ticks = 0; ///< simulated duration: largest tick + 1

    /** Served requests per 1000 simulated cycles. */
    double throughputPerKTick() const;

    bool operator==(const ServiceReport &) const = default;
};

/**
 * The concurrent cache service. Construction validates the config
 * (throws std::invalid_argument on zero shards/banks/ports, or when
 * totalWords() exceeds ServiceConfig::kMaxTotalWords) before any bank
 * is built; serve() serves each shard's requests in arrival order (a
 * tick earlier than the shard's clock clamps forward). From the first
 * address >= totalWords() on it serves nothing, reads the source to
 * its end (so the source's own format errors come first), and throws
 * std::out_of_range quoting that request's index and address.
 *
 * Layout: address a belongs to shard a mod shards as shard-local word
 * w = a / shards, which lives in bank w mod banksPerShard at row
 * (w / banksPerShard) / interleaveDegree, slot (w / banksPerShard) mod
 * interleaveDegree. Every read and write costs 2 cycles before
 * queueing and recovery.
 */
class CacheService
{
  public:
    explicit CacheService(const ServiceConfig &config);

    const ServiceConfig &config() const { return cfg; }

    /**
     * Serve @p source in one pass, block by block. Each block is
     * partitioned by shard and the shards run over the pool;
     * every shard's worker (banks, port scheduler, clock) lives across
     * blocks, so the report does not depend on the block size or the
     * pool size, and memory is bounded by one block, not the stream.
     * @p observe, when set, sees every request's outcome.
     */
    ServiceReport serve(RequestSource &source,
                        const RequestObserver &observe = {}) const;

    /** Serve @p requests (arrival order) through a VectorRequestSource. */
    ServiceReport serve(const std::vector<ServiceRequest> &requests,
                        const RequestObserver &observe = {}) const;

  private:
    ServiceConfig cfg;
    CodePtr code; ///< the horizontal code every bank shares
};

/** Per-shard latency/throughput table ("all" row last). */
Table serviceLatencyTable(const ServiceReport &report);

/** Per-shard reliability table ("all" row last). */
Table serviceReliabilityTable(const ServiceReport &report);

} // namespace tdc

#endif // TDC_SERVICE_CACHE_SERVICE_HH
