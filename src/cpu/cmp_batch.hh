/**
 * @file
 * Batched CMP simulation: run many independent (machine, workload,
 * protection, seed) combinations across the worker pool. The Figure
 * 5/6 studies are grids of such runs; each CmpSimulator instance is
 * self-contained, so the grid is embarrassingly parallel and the
 * per-spec results are independent of thread count by construction.
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
 * Run every spec for @p cycles cycles, sharding specs across the
 * parallelFor pool and serving each run from the result cache when it
 * holds one. results[i] corresponds to specs[i].
 */
std::vector<CmpSimResult> runCmpBatch(const std::vector<CmpRunSpec> &specs,
                                      uint64_t cycles);

} // namespace tdc

#endif // TDC_CPU_CMP_BATCH_HH
