/**
 * @file
 * CMP simulator layer benchmark: the unit of work behind fig5, fig6,
 * the ablations and --machine grids.
 *
 * - BM_CmpSimulator/fat and /lean: one CmpSimulator run per
 *   iteration, OLTP under full 2D protection (l1+steal+l2), 150k
 *   cycles, seed 42 — the cells fig5 simulates.
 * - BM_CmpMatchedSet/fat and /lean: fig5's five OLTP runs (baseline
 *   plus its four protections, 150k cycles, seed 42) as one
 *   runCmpBatch call per iteration, a matched set that generates each
 *   instruction stream once. The batch runs on one thread, the
 *   in-memory result cache is cleared before every call and the disk
 *   tier is off, so every iteration simulates the whole set. Before
 *   timing, the batch's counters are compared with five solo
 *   CmpSimulator runs; any difference fails the benchmark
 *   (SkipWithError).
 *
 * Counters are per iteration and deterministic: sim_kcycles (simulated
 * kilocycles) and instructions (committed instructions), so a timing
 * change can be told apart from a change in simulated work.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/parallel.hh"
#include "cpu/cmp_batch.hh"
#include "reliability/result_cache.hh"

namespace
{

constexpr uint64_t kCycles = 150000;
constexpr uint64_t kSeed = 42;

void
report(benchmark::State &state, uint64_t kcycles, uint64_t instructions)
{
    state.counters["sim_kcycles"] = benchmark::Counter(
        double(kcycles), benchmark::Counter::kAvgIterations);
    state.counters["instructions"] = benchmark::Counter(
        double(instructions), benchmark::Counter::kAvgIterations);
}

void
BM_CmpSimulator(benchmark::State &state, const tdc::CmpConfig &machine)
{
    const tdc::WorkloadProfile &oltp = tdc::workloadByName("OLTP");
    const tdc::ProtectionConfig prot =
        tdc::ProtectionConfig::parse("l1+steal+l2");
    uint64_t kcycles = 0;
    uint64_t instructions = 0;
    for (auto _ : state) {
        tdc::CmpSimulator sim(machine, oltp, prot, kSeed);
        const tdc::CmpSimResult r = sim.run(kCycles);
        kcycles += r.cycles / 1000;
        instructions += r.instructions;
        benchmark::DoNotOptimize(r);
    }
    report(state, kcycles, instructions);
}

/** Runs parallelFor on the calling thread alone while it lives. */
struct SerialPool
{
    SerialPool() { tdc::setParallelThreads(1); }
    ~SerialPool() { tdc::setParallelThreads(0); }
};

/** Every counter of @p r, in declaration order. */
std::vector<uint64_t>
countersOf(const tdc::CmpSimResult &r)
{
    return {r.cycles,           r.instructions, r.l1ReadsData,
            r.l1Writes,         r.l1FillEvict,  r.l1ExtraReads,
            r.l1DirtyTransfers, r.l2ReadsInst,  r.l2ReadsData,
            r.l2Writes,         r.l2FillEvict,  r.l2ExtraReads};
}

void
BM_CmpMatchedSet(benchmark::State &state, const tdc::CmpConfig &machine)
{
    const tdc::WorkloadProfile &oltp = tdc::workloadByName("OLTP");
    std::vector<tdc::CmpRunSpec> specs = {
        {machine, oltp, tdc::ProtectionConfig::none(), kSeed}};
    for (const char *p : {"l1", "l1+steal", "l2", "l1+steal+l2"})
        specs.push_back(
            {machine, oltp, tdc::ProtectionConfig::parse(p), kSeed});
    const SerialPool serial;
    tdc::ResultCache &cache = tdc::resultCache();
    cache.setDirectory("");

    cache.clearMemory();
    const std::vector<tdc::CmpSimResult> batch =
        tdc::runCmpBatch(specs, kCycles);
    for (size_t i = 0; i < specs.size(); ++i) {
        tdc::CmpSimulator solo(specs[i].machine, specs[i].workload,
                               specs[i].protection, specs[i].seed);
        if (countersOf(batch[i]) != countersOf(solo.run(kCycles))) {
            state.SkipWithError(("matched-set run " + std::to_string(i) +
                                 " differs from its solo run")
                                    .c_str());
            return;
        }
    }

    uint64_t kcycles = 0;
    uint64_t instructions = 0;
    for (auto _ : state) {
        cache.clearMemory();
        const std::vector<tdc::CmpSimResult> results =
            tdc::runCmpBatch(specs, kCycles);
        for (const tdc::CmpSimResult &r : results) {
            kcycles += r.cycles / 1000;
            instructions += r.instructions;
        }
        benchmark::DoNotOptimize(results.data());
    }
    report(state, kcycles, instructions);
}

BENCHMARK_CAPTURE(BM_CmpSimulator, fat, tdc::CmpConfig::fat())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpSimulator, lean, tdc::CmpConfig::lean())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpMatchedSet, fat, tdc::CmpConfig::fat())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpMatchedSet, lean, tdc::CmpConfig::lean())
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
