/**
 * @file
 * google-benchmark microbenchmarks of the codec substrate: encode and
 * decode throughput of every code used in the study, plus the
 * 2D-array access paths (fast-path read, read-before-write, full
 * recovery sweep, the unrecoverable-fault recovery storm) and one
 * injection cell. These quantify the software cost of the models,
 * not the hardware latencies (those are in tdc_run --figure fig7).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "array/fault.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "ecc/code_factory.hh"
#include "scheme/scheme.hh"

using namespace tdc;

namespace
{

CodeKind
kindFromIndex(int64_t index)
{
    static const CodeKind kinds[] = {
        CodeKind::kEdc8, CodeKind::kSecDed, CodeKind::kDecTed,
        CodeKind::kQecPed, CodeKind::kOecNed,
    };
    return kinds[index];
}

void
BM_Encode64(benchmark::State &state)
{
    const CodePtr code = makeCode(kindFromIndex(state.range(0)), 64);
    Rng rng(1);
    BitVector data(64, rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(code->encode(data));
    }
    state.SetLabel(code->name());
}
BENCHMARK(BM_Encode64)->DenseRange(0, 4);

void
BM_DecodeClean64(benchmark::State &state)
{
    const CodePtr code = makeCode(kindFromIndex(state.range(0)), 64);
    Rng rng(2);
    const BitVector cw = code->encode(BitVector(64, rng.next()));
    for (auto _ : state) {
        benchmark::DoNotOptimize(code->decode(cw));
    }
    state.SetLabel(code->name());
}
BENCHMARK(BM_DecodeClean64)->DenseRange(0, 4);

void
BM_DecodeCorrect64(benchmark::State &state)
{
    const CodePtr code = makeCode(kindFromIndex(state.range(0)), 64);
    if (code->correctCapability() == 0) {
        state.SkipWithError("detection-only code");
        return;
    }
    Rng rng(3);
    BitVector cw = code->encode(BitVector(64, rng.next()));
    for (size_t i = 0; i < code->correctCapability(); ++i)
        cw.flip(i * 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code->decode(cw));
    }
    state.SetLabel(code->name() + " @ max errors");
}
BENCHMARK(BM_DecodeCorrect64)->DenseRange(0, 4);

/**
 * Dirty BCH decode: the full syndrome/BM/Chien pipeline with 1..t
 * injected errors (the paper's multi-bit events). Args: (code index,
 * error count).
 */
void
BM_DecodeDirty64(benchmark::State &state)
{
    const CodePtr code = makeCode(kindFromIndex(state.range(0)), 64);
    const size_t nerrs = size_t(state.range(1));
    Rng rng(7);
    BitVector cw = code->encode(BitVector(64, rng.next()));
    // Distinct random flip positions across the whole codeword.
    std::vector<size_t> flips;
    while (flips.size() < nerrs) {
        const size_t p = rng.nextBelow(cw.size());
        bool dup = false;
        for (size_t q : flips)
            dup |= q == p;
        if (!dup)
            flips.push_back(p);
    }
    for (size_t p : flips)
        cw.flip(p);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code->decode(cw));
    }
    state.SetLabel(code->name() + " @ " + std::to_string(nerrs) +
                   " errors");
}
BENCHMARK(BM_DecodeDirty64)
    ->Args({2, 1})->Args({2, 2})          // DECTED (t=2)
    ->Args({3, 2})->Args({3, 4})          // QECPED (t=4)
    ->Args({4, 1})->Args({4, 4})->Args({4, 8}); // OECNED (t=8)

/**
 * One injection cell at 1 thread: injectAndRecover of 16 trials of a
 * 32x32 cluster, i.e. 16 sessions that fill, scrub and verify the bank
 * a line at a time. Arg: scheme (0 = 2d:edc32/i8+vp32, the widest
 * fused fold; 1 = 2d:edc8/i4+vp32, the paper's L1 bank;
 * 2 = conv:secded/i4).
 */
void
BM_InjectionTrial(benchmark::State &state)
{
    static const char *const kSpecs[] = {"2d:edc32/i8+vp32",
                                         "2d:edc8/i4+vp32",
                                         "conv:secded/i4"};
    constexpr int kTrials = 16;
    const char *spec = kSpecs[state.range(0)];
    setParallelThreads(1);
    const SchemePtr scheme = parseScheme(spec);
    const FaultModel fault = FaultModel::cluster(32, 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme->injectAndRecover(fault, kTrials, 99));
    }
    setParallelThreads(0);
    state.SetItemsProcessed(state.iterations() * kTrials);
    state.SetLabel(std::string(spec) + " 32x32, 16 trials, 1 thread");
}
BENCHMARK(BM_InjectionTrial)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

/**
 * Monte-Carlo recovery sweep (Figure 3-style injection campaign: 16
 * trials of a 32x32 cluster on the L1 2D bank) at a given worker-pool
 * thread count. Arg: threads.
 */
void
BM_RecoverySweep(benchmark::State &state)
{
    setParallelThreads(unsigned(state.range(0)));
    const SchemePtr scheme = makeTwoDimScheme(TwoDimConfig::l1Default());
    const FaultModel fault = FaultModel::cluster(32, 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme->injectAndRecover(fault, 16, 99));
    }
    setParallelThreads(0);
    state.SetLabel("16 trials, " + std::to_string(state.range(0)) +
                   " thread(s)");
}
BENCHMARK(BM_RecoverySweep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * The recovery storm: 16 trials of a dead chip on the L1 2D bank,
 * single-threaded. EDC8 horizontal cannot recover it, so every read of
 * a word that detects requests a recovery (257 per trial). Counters,
 * per trial, from the same 16 trials replayed word by word on a bare
 * TwoDimArray (fill, inject, scrub, read every word):
 * recoveries requested, recovery sweeps executed, and physical row
 * reads of the data array.
 */
void
BM_RecoveryStorm(benchmark::State &state)
{
    setParallelThreads(1);
    const TwoDimConfig cfg = TwoDimConfig::l1Default();
    const SchemePtr scheme = makeTwoDimScheme(cfg);
    const FaultModel fault = FaultModel::chipKill();
    constexpr int kTrials = 16;
    constexpr uint64_t kSeed = 99;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheme->injectAndRecover(fault, kTrials, kSeed));
    }
    setParallelThreads(0);

    uint64_t recoveries = 0, sweeps = 0, row_reads = 0;
    for (int t = 0; t < kTrials; ++t) {
        TwoDimArray arr(cfg);
        Rng rng(shardSeed(kSeed, uint64_t(t)));
        for (size_t r = 0; r < arr.rows(); ++r)
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                arr.writeWord(r, s, BitVector(64, rng.next()));
        FaultInjector(rng).inject(arr.cells(), fault);
        arr.scrub();
        for (size_t r = 0; r < arr.rows(); ++r)
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                arr.readWord(r, s);
        recoveries += arr.stats().recoveries;
        sweeps += arr.stats().recoverySweeps;
        row_reads += arr.cells().readCount();
    }
    state.counters["recoveries"] = double(recoveries) / kTrials;
    state.counters["sweeps"] = double(sweeps) / kTrials;
    state.counters["row_reads"] = double(row_reads) / kTrials;
    state.SetLabel("16 trials of chip:any, 1 thread");
}
BENCHMARK(BM_RecoveryStorm)->Unit(benchmark::kMillisecond);

/**
 * Whole-cache scrub with a multi-bit event in every bank — the
 * bank-parallel recovery path at a given worker-pool thread count:
 * each bank has its own cells, parity, stats and scratch, so the banks
 * scrub over parallelFor. Arg: threads.
 */
void
BM_CacheStoreScrubAll(benchmark::State &state)
{
    setParallelThreads(unsigned(state.range(0)));
    const TwoDimConfig cfg = TwoDimConfig::l1Default();
    const CodePtr code = makeCode(cfg.horizontalKind, cfg.wordBits);
    std::vector<std::unique_ptr<TwoDimArray>> banks;
    for (size_t b = 0; b < 8; ++b)
        banks.push_back(std::make_unique<TwoDimArray>(cfg, code));
    // Word w lives in bank w mod 8, words interleaved across banks.
    Rng rng(8);
    const size_t slots = cfg.interleaveDegree;
    for (size_t w = 0; w < banks.size() * cfg.dataRows * slots; ++w) {
        const size_t in_bank = w / banks.size();
        banks[w % banks.size()]->writeWord(in_bank / slots, in_bank % slots,
                                           BitVector(64, rng.next()));
    }
    std::vector<char> clean(banks.size());
    for (auto _ : state) {
        state.PauseTiming();
        FaultInjector inj(rng);
        for (const auto &bank : banks)
            inj.inject(bank->cells(), FaultModel::cluster(32, 32));
        state.ResumeTiming();
        // Transient clusters are repaired back to the stored data, so
        // every bank is clean again before the next iteration.
        parallelFor(banks.size(),
                    [&](size_t b) { clean[b] = banks[b]->scrub(); });
        benchmark::DoNotOptimize(clean.data());
    }
    setParallelThreads(0);
    state.SetLabel("8 banks x 32x32 cluster, " +
                   std::to_string(state.range(0)) + " thread(s)");
}
BENCHMARK(BM_CacheStoreScrubAll)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_TwoDimReadFastPath(benchmark::State &state)
{
    TwoDimArray arr(TwoDimConfig::l1Default());
    Rng rng(4);
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, BitVector(64, rng.next()));
    size_t r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(arr.readWord(r % arr.rows(), r % 4));
        ++r;
    }
}
BENCHMARK(BM_TwoDimReadFastPath);

void
BM_TwoDimReadBeforeWrite(benchmark::State &state)
{
    TwoDimArray arr(TwoDimConfig::l1Default());
    Rng rng(5);
    size_t r = 0;
    for (auto _ : state) {
        arr.writeWord(r % arr.rows(), r % 4, BitVector(64, rng.next()));
        ++r;
    }
}
BENCHMARK(BM_TwoDimReadBeforeWrite);

void
BM_TwoDimRecovery32x32(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state) {
        state.PauseTiming();
        TwoDimArray arr(TwoDimConfig::l1Default());
        for (size_t r = 0; r < arr.rows(); ++r)
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                arr.writeWord(r, s, BitVector(64, rng.next()));
        FaultInjector(rng).inject(arr.cells(), FaultModel::cluster(32, 32));
        state.ResumeTiming();
        benchmark::DoNotOptimize(arr.recover());
    }
}
BENCHMARK(BM_TwoDimRecovery32x32)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
