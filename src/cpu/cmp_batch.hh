/**
 * @file
 * Batched CMP simulation: run many independent (machine, workload,
 * protection, seed) combinations across the worker pool. The Figure
 * 5/6 studies are grids of such runs; each CmpSimulator instance is
 * self-contained, so the grid is embarrassingly parallel and the
 * per-spec results are independent of thread count by construction.
 */

#ifndef TDC_CPU_CMP_BATCH_HH
#define TDC_CPU_CMP_BATCH_HH

#include <vector>

#include "cpu/cmp_simulator.hh"

namespace tdc
{

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
 * Run every spec for @p cycles cycles, sharding specs across the
 * parallelFor pool. results[i] corresponds to specs[i].
 */
std::vector<CmpSimResult> runCmpBatch(const std::vector<CmpRunSpec> &specs,
                                      uint64_t cycles);

} // namespace tdc

#endif // TDC_CPU_CMP_BATCH_HH
