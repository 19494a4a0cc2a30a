/**
 * @file
 * google-benchmark microbenchmarks of the codec kernels on the
 * access path (BENCH_0007, BENCH_0014, BENCH_0016): interleave
 * extract/deposit (one slot through the word kernel, a whole line
 * through the line kernel), EDC fold, Hsiao encode/decode, the
 * batched line codec, and BCH dirty decode. Every kernel has one
 * portable code path.
 *
 *   bench/record_bench.sh --bench bench_simd_codec \
 *     --out BENCH_0016_portable_interleave.json --repeat 3 [label]
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "array/interleave.hh"
#include "common/rng.hh"
#include "core/line_codec.hh"
#include "ecc/bch.hh"
#include "ecc/hsiao.hh"
#include "ecc/interleaved_parity.hh"

using namespace tdc;

namespace
{

BitVector
randomRow(size_t bits, uint64_t seed)
{
    Rng rng(seed);
    BitVector row(bits);
    for (size_t w = 0; w < row.wordCount(); ++w)
        row.wordData()[w] = rng.next();
    // Restore the top-word invariant.
    if (bits % 64 != 0)
        row.wordData()[row.wordCount() - 1] &=
            (uint64_t(1) << (bits % 64)) - 1;
    return row;
}

struct InterleaveGeom
{
    const char *label;
    size_t cwBits;
    size_t degree;
};

const InterleaveGeom kInterleaveGeoms[] = {
    {"(72,64)/i4", 72, 4},   // L1 EDC8 and SECDED rows
    {"(272,256)/i2", 272, 2}, // L2 EDC16 rows
    {"(72,64)/i3", 72, 3},   // non-dividing degree (phase walk)
};

void
BM_InterleaveExtract(benchmark::State &state)
{
    const InterleaveGeom &g = kInterleaveGeoms[state.range(0)];
    const InterleaveMap map(g.cwBits, g.degree);
    const BitVector row = randomRow(map.rowBits(), 101);
    BitVector cw;
    for (auto _ : state) {
        for (size_t slot = 0; slot < map.degree(); ++slot) {
            map.extractWordInto(row, slot, cw);
            benchmark::DoNotOptimize(cw.wordData());
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(map.degree()));
    state.SetLabel(std::string("extract ") + g.label);
}
BENCHMARK(BM_InterleaveExtract)->DenseRange(0, 2);

void
BM_InterleaveExtractLine(benchmark::State &state)
{
    // Every slot in one call: the line kernel's index-bit transpose at
    // the power-of-two degrees, the word kernel's slot loop at i3.
    const InterleaveGeom &g = kInterleaveGeoms[state.range(0)];
    const InterleaveMap map(g.cwBits, g.degree);
    const BitVector row = randomRow(map.rowBits(), 101);
    std::vector<BitVector> words;
    for (auto _ : state) {
        map.extractLine(row, words);
        benchmark::DoNotOptimize(words.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(map.degree()));
    state.SetLabel(std::string("extractLine ") + g.label);
}
BENCHMARK(BM_InterleaveExtractLine)->DenseRange(0, 2);

void
BM_InterleaveDeposit(benchmark::State &state)
{
    const InterleaveGeom &g = kInterleaveGeoms[state.range(0)];
    const InterleaveMap map(g.cwBits, g.degree);
    BitVector row = randomRow(map.rowBits(), 102);
    const BitVector cw = randomRow(g.cwBits, 103);
    for (auto _ : state) {
        for (size_t slot = 0; slot < map.degree(); ++slot) {
            map.depositWord(row, slot, cw);
            benchmark::DoNotOptimize(row.wordData());
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(map.degree()));
    state.SetLabel(std::string("deposit ") + g.label);
}
BENCHMARK(BM_InterleaveDeposit)->DenseRange(0, 2);

// Per-codeword EDC *encode* is deliberately untracked: Code::encode is
// two word-parallel slice deposits plus a handful of XORs, so it is
// allocation-bound. The encode-side EDC series is BM_LineEncode (four
// codewords plus one line deposit).
void
BM_EdcSyndromeClean(benchmark::State &state)
{
    const size_t k = state.range(0) == 0 ? 64 : 256;
    const InterleavedParityCode code(k, k == 64 ? 8 : 16);
    const BitVector cw = code.encode(randomRow(k, 105));
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.syndromeClean(cw));
    }
    state.SetLabel(code.name() + " syndromeClean");
}
BENCHMARK(BM_EdcSyndromeClean)->DenseRange(0, 1);

void
BM_HsiaoEncode(benchmark::State &state)
{
    const size_t k = state.range(0) == 0 ? 64 : 256;
    const HsiaoSecDedCode code(k);
    const BitVector data = randomRow(k, 106);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.computeCheck(data));
    }
    state.SetLabel(code.name() + " encode");
}
BENCHMARK(BM_HsiaoEncode)->DenseRange(0, 1);

void
BM_HsiaoDecodeDirty(benchmark::State &state)
{
    const size_t k = state.range(0) == 0 ? 64 : 256;
    const HsiaoSecDedCode code(k);
    BitVector cw = code.encode(randomRow(k, 107));
    cw.flip(k / 2); // single-bit correction path
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.decode(cw));
    }
    state.SetLabel(code.name() + " decode dirty");
}
BENCHMARK(BM_HsiaoDecodeDirty)->DenseRange(0, 1);

void
BM_LineClean(benchmark::State &state)
{
    // Clean whole-line check: the scrub/recovery hot predicate, one
    // fused EDC fold over the row words. Arg: 0 = the
    // L1 bank's edc8/i4, 1 = the L2 bank's edc16/i2 over 256-bit
    // words (both fold within one word), 2 = edc32/i8 (period 256,
    // four fold lanes).
    struct LineGeometry
    {
        size_t dataBits, checkBits, degree;
        const char *label;
    };
    static const LineGeometry kGeometries[] = {
        {64, 8, 4, "edc8/i4"},
        {256, 16, 2, "edc16/i2"},
        {64, 32, 8, "edc32/i8"},
    };
    const LineGeometry &g = kGeometries[state.range(0)];
    const InterleavedParityCode code(g.dataBits, g.checkBits);
    const InterleaveMap map(code.codewordBits(), g.degree);
    const LineCodec line(code, map);
    std::vector<BitVector> words(map.degree(),
                                 randomRow(code.dataBits(), 108));
    BitVector row(map.rowBits());
    line.encodeLine(words, row);
    for (auto _ : state) {
        benchmark::DoNotOptimize(line.lineClean(row));
    }
    state.SetLabel(std::string("lineClean ") + g.label);
}
BENCHMARK(BM_LineClean)->DenseRange(0, 2);

void
BM_LineEncode(benchmark::State &state)
{
    const bool l2 = state.range(0) != 0;
    const InterleavedParityCode code(l2 ? 256 : 64, l2 ? 16 : 8);
    const InterleaveMap map(code.codewordBits(), l2 ? 2 : 4);
    const LineCodec line(code, map);
    std::vector<BitVector> words;
    for (size_t s = 0; s < map.degree(); ++s)
        words.push_back(randomRow(code.dataBits(), 109 + s));
    BitVector row(map.rowBits());
    for (auto _ : state) {
        line.encodeLine(words, row);
        benchmark::DoNotOptimize(row.wordData());
    }
    state.SetLabel(std::string("encodeLine ") +
                            (l2 ? "edc16/i2" : "edc8/i4"));
}
BENCHMARK(BM_LineEncode)->DenseRange(0, 1);

void
BM_BchDecodeDirty(benchmark::State &state)
{
    // Four errors drive the locator to degree 4, which the
    // closed-form quartic answers — the BENCH_0007 "dirty decode"
    // series.
    const size_t t = state.range(0) == 0 ? 4 : 8;
    const BchCode code(64, t);
    BitVector cw = code.encode(randomRow(64, 110));
    // High-position errors: a Chien sweep would scan nearly the whole
    // shortened length before its first deflation, while the quartic
    // closed form is position independent.
    const size_t n = code.codewordBits();
    for (size_t i = 0; i < 4; ++i)
        cw.flip(n - 1 - i * 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.decode(cw));
    }
    state.SetLabel(code.name() + " decode 4 errors");
}
BENCHMARK(BM_BchDecodeDirty)->DenseRange(0, 1);

} // namespace

BENCHMARK_MAIN();
