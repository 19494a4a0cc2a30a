/**
 * @file
 * Minimal worker-pool parallel-for for the simulation sweeps.
 *
 * The Monte-Carlo drivers (recovery sweeps, yield/soft-error trials,
 * CMP simulation batches) are embarrassingly parallel across trials.
 * This utility shards such loops over a small persistent thread pool
 * with no external dependencies. Determinism is the caller's contract:
 * every iteration writes only its own slot (and derives any randomness
 * from shardSeed), so results are bit-identical at any thread count.
 */

#ifndef TDC_COMMON_PARALLEL_HH
#define TDC_COMMON_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

namespace tdc
{

/**
 * The worker count the TDC_THREADS environment variable requests;
 * std::nullopt when it is unset.
 * @throws std::invalid_argument (quoting the value) unless it is
 *         plain decimal digits in [1, 256] (SpecReader::digits)
 */
std::optional<unsigned> requestedThreads();

/**
 * Set the worker threads parallelFor may use, including the calling
 * thread; 0 restores the default: requestedThreads() when TDC_THREADS
 * is set, else the hardware concurrency.
 */
void setParallelThreads(unsigned n);

/**
 * Invoke body(i) for every i in [0, n), distributing iterations over
 * the pool. The calling thread participates; the call returns after
 * every iteration completed. The first exception thrown by any
 * iteration is rethrown here (remaining iterations are abandoned).
 *
 * Iterations must be independent: they run in unspecified order on
 * unspecified threads. Nested calls from inside a body run serially
 * on the calling worker. Bodies that need per-iteration randomness
 * must derive it from shardSeed(seed, i), never from shared state.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body);

/**
 * Counter-based RNG stream derivation: a SplitMix64-style mix of a
 * base seed and a shard index. Adjacent shards get statistically
 * independent streams, and the mapping depends only on (base, shard),
 * never on execution order — the determinism anchor for every
 * threaded sweep.
 */
uint64_t shardSeed(uint64_t base, uint64_t shard);

/**
 * Well-known stream domains for the three-argument shardSeed overload.
 * Two independent consumers of one campaign seed (say, fault-injection
 * events and background-scrub scheduling) that both count 0, 1, 2, ...
 * would collide stream-for-stream if they derived from the plain
 * two-argument shardSeed — every event i would see the very bytes
 * "random" scrub decision i saw. Each consumer class therefore names
 * its own domain and derives via shardSeed(base, domain, counter).
 */
inline constexpr uint64_t kSeedDomainInjection = 0x496e6a656374ULL;
inline constexpr uint64_t kSeedDomainScrub = 0x5363727562ULL;
inline constexpr uint64_t kSeedDomainService = 0x53657276696365ULL;
inline constexpr uint64_t kSeedDomainWorkload = 0x576f726b6c6fULL;
inline constexpr uint64_t kSeedDomainLifetime = 0x4c69666574696dULL;

/**
 * Domain-separated stream derivation: like shardSeed(base, shard) but
 * namespaced by @p domain, so counters in different domains never
 * collide even when they share @p base and @p shard. Use one of the
 * kSeedDomain* constants (or any fixed literal) per consumer class.
 */
uint64_t shardSeed(uint64_t base, uint64_t domain, uint64_t shard);

} // namespace tdc

#endif // TDC_COMMON_PARALLEL_HH
