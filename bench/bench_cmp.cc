/**
 * @file
 * CMP simulator layer benchmark: one CmpSimulator run per iteration,
 * the unit of work behind fig5, fig6, the ablations and --machine
 * grids.
 *
 * - BM_CmpSimulator/fat and /lean: OLTP under full 2D protection
 *   (l1+steal+l2), 150k cycles, seed 42 — the cells fig5 simulates.
 *
 * Counters are per run and deterministic: sim_kcycles (simulated
 * kilocycles) and instructions (committed instructions), so a timing
 * change can be told apart from a change in simulated work.
 */

#include <benchmark/benchmark.h>

#include "cpu/cmp_simulator.hh"

namespace
{

constexpr uint64_t kCycles = 150000;

void
BM_CmpSimulator(benchmark::State &state, const tdc::CmpConfig &machine)
{
    const tdc::WorkloadProfile &oltp = tdc::workloadByName("OLTP");
    const tdc::ProtectionConfig prot =
        tdc::ProtectionConfig::parse("l1+steal+l2");
    uint64_t kcycles = 0;
    uint64_t instructions = 0;
    for (auto _ : state) {
        tdc::CmpSimulator sim(machine, oltp, prot, 42);
        const tdc::CmpSimResult r = sim.run(kCycles);
        kcycles += r.cycles / 1000;
        instructions += r.instructions;
        benchmark::DoNotOptimize(r);
    }
    state.counters["sim_kcycles"] = benchmark::Counter(
        double(kcycles), benchmark::Counter::kAvgIterations);
    state.counters["instructions"] = benchmark::Counter(
        double(instructions), benchmark::Counter::kAvgIterations);
}

BENCHMARK_CAPTURE(BM_CmpSimulator, fat, tdc::CmpConfig::fat())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpSimulator, lean, tdc::CmpConfig::lean())
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
