/**
 * @file
 * Batched CMP simulation: run many (machine, workload, protection,
 * seed) combinations across the worker pool. The Figure 5/6 studies
 * are grids of such runs.
 *
 * The unit of parallel work is a matched set: the runs of a batch
 * whose hardware threads read the same instruction streams, i.e. the
 * same cores x threads per core, workload and seed (a baseline and its
 * protections, or ablation 3's steal windows). A set generates each
 * thread's stream once into a ring shared by its runs, and the runs
 * take turns so that none overwrites an instruction another has not
 * read (see StreamRing). Each ring has a fixed capacity, allocated
 * once per set: 128 KiB of packed 8-byte instructions over all of a
 * set's streams (4096 per thread on the fat CMP, 512 on the lean one),
 * plus a fork of at most issue-width instructions for a run that must
 * stop sharing a stream. Memory is bounded by that, not by how far
 * the runs drift apart. The streams do not depend on timing, so every
 * result equals a solo CmpSimulator run and is independent of the
 * thread count.
 *
 * Every run is memoised in the campaign result cache
 * (reliability/result_cache.hh) under cmpRunCacheKey(): a run is a pure
 * function of its spec and cycle count, so a warm figure replays its
 * runs instead of simulating them, and figures that share a run (fig6
 * reads fig5's "l1+steal+l2" column) simulate it once per cache.
 */

#ifndef TDC_CPU_CMP_BATCH_HH
#define TDC_CPU_CMP_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cmp_simulator.hh"

namespace tdc
{

/**
 * Salt of the cached CMP run records, part of every cmpRunCacheKey.
 * Bump it in any change that moves a simulator counter (a
 * CmpExactCounters re-pin): old records then stop matching and
 * recompute, while injection and lifetime entries stay valid.
 */
inline constexpr uint32_t kCmpRecordVersion = 1;

/** One simulation to run. */
struct CmpRunSpec
{
    CmpConfig machine;
    WorkloadProfile workload;
    ProtectionConfig protection;
    uint64_t seed = 1;

    bool operator==(const CmpRunSpec &) const = default;
};

/**
 * Canonical result-cache key of one run: kCmpRecordVersion, every
 * CmpConfig, WorkloadProfile and ProtectionConfig field (doubles in
 * their shortest exact form), the seed and @p cycles.
 */
std::string cmpRunCacheKey(const CmpRunSpec &spec, uint64_t cycles);

/**
 * Run every spec for @p cycles cycles. Each run is served from the
 * result cache when it holds one; the others are grouped into matched
 * sets, one parallelFor task per set, and each result is stored under
 * its own cmpRunCacheKey. A spec listed twice simulates once and is
 * read back from the cache. results[i] corresponds to specs[i].
 */
std::vector<CmpSimResult> runCmpBatch(const std::vector<CmpRunSpec> &specs,
                                      uint64_t cycles);

} // namespace tdc

#endif // TDC_CPU_CMP_BATCH_HH
