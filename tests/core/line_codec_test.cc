/**
 * @file
 * The batched line codec's contract: lineClean must equal the
 * per-slot syndrome ground truth on every backend (the fused EDC fold
 * included), correctLine must reproduce the historical slot-loop
 * repair, and encodeLine must round-trip — for fused and non-fused
 * geometries alike.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/cpu_features.hh"
#include "common/rng.hh"
#include "core/line_codec.hh"
#include "ecc/bch.hh"
#include "ecc/hsiao.hh"
#include "ecc/interleaved_parity.hh"

namespace tdc
{
namespace
{

std::vector<SimdBackend>
availableBackends()
{
    std::vector<SimdBackend> out = {SimdBackend::kScalar};
    if (bestSimdBackend() >= SimdBackend::kBmi2)
        out.push_back(SimdBackend::kBmi2);
    return out;
}

/** Ground truth: every slot's syndrome vanishes (per-slot extract). */
bool
refLineClean(const Code &code, const InterleaveMap &map,
             const BitVector &row)
{
    for (size_t slot = 0; slot < map.degree(); ++slot) {
        if (!code.decode(map.extractWord(row, slot)).clean())
            return false;
    }
    return true;
}

struct Geometry
{
    const char *label;
    std::shared_ptr<Code> code;
    size_t degree;
};

std::vector<Geometry>
geometries()
{
    return {
        // L1: EDC8 over 64-bit words, 4-way interleave -> p = 32.
        {"edc8/i4", std::make_shared<InterleavedParityCode>(64, 8), 4},
        // L2: EDC16 over 256-bit words, 2-way interleave -> p = 32.
        {"edc16/i2", std::make_shared<InterleavedParityCode>(256, 16), 2},
        // Wide periods, multiples of 64 (p = 128, 128, 256): the fold
        // keeps p/64 lanes.
        {"edc16/i8", std::make_shared<InterleavedParityCode>(64, 16), 8},
        {"edc32/i4", std::make_shared<InterleavedParityCode>(64, 32), 4},
        {"edc32/i8", std::make_shared<InterleavedParityCode>(64, 32), 8},
        // Non-dividing period 3*8 = 24: fused fold must stay off.
        {"edc8/i3", std::make_shared<InterleavedParityCode>(64, 8), 3},
        // Non-EDC horizontals: per-slot syndromeClean path.
        {"secded/i4", std::make_shared<HsiaoSecDedCode>(64), 4},
        {"qecped-inner/i2", std::make_shared<BchCode>(64, 4), 2},
    };
}

/** One random data word per slot of @p g. */
std::vector<BitVector>
randomWords(const Geometry &g, Rng &rng)
{
    std::vector<BitVector> words;
    for (size_t s = 0; s < g.degree; ++s) {
        BitVector w(g.code->dataBits());
        for (size_t i = 0; i < w.size(); ++i)
            w.set(i, rng.nextBool());
        words.push_back(w);
    }
    return words;
}

TEST(LineCodec, LineCleanMatchesPerSlotTruthOnEveryBackend)
{
    Rng rng(51);
    for (const Geometry &g : geometries()) {
        const InterleaveMap map(g.code->codewordBits(), g.degree);
        const LineCodec line(*g.code, map);

        // A clean row, that row with one flip at every single column,
        // sparse multi-bit patterns on it (including flip pairs one
        // fold period or one row word apart, which a wrong fold would
        // cancel or keep apart), and fully random rows.
        const std::vector<BitVector> words = randomWords(g, rng);
        BitVector cleanRow(map.rowBits());
        line.encodeLine(words, cleanRow);

        std::vector<BitVector> rows = {cleanRow};
        for (size_t col = 0; col < map.rowBits(); ++col) {
            BitVector r = cleanRow;
            r.flip(col);
            rows.push_back(r);
        }
        const size_t period = g.degree * g.code->checkBits();
        for (size_t col = 0; col < map.rowBits(); ++col) {
            for (size_t dist : {period, size_t(64)}) {
                if (col + dist >= map.rowBits())
                    continue;
                BitVector r = cleanRow;
                r.flip(col);
                r.flip(col + dist);
                rows.push_back(r);
            }
        }
        for (int trial = 0; trial < 200; ++trial) {
            BitVector r = cleanRow;
            const size_t flips = 2 + rng.nextBelow(7);
            for (size_t f = 0; f < flips; ++f)
                r.flip(rng.nextBelow(map.rowBits()));
            rows.push_back(r);
        }
        for (int trial = 0; trial < 20; ++trial) {
            BitVector r(map.rowBits());
            for (size_t i = 0; i < r.size(); ++i)
                r.set(i, rng.nextBool());
            rows.push_back(r);
        }

        for (const BitVector &row : rows) {
            const bool truth = refLineClean(*g.code, map, row);
            for (SimdBackend b : availableBackends()) {
                ScopedSimdBackend guard(b);
                EXPECT_EQ(line.lineClean(row), truth)
                    << g.label << " backend=" << simdBackendName(b);
            }
        }
    }
}

TEST(LineCodec, CorrectLineReproducesTheSlotLoopRepair)
{
    Rng rng(52);
    const Geometry g = geometries()[6]; // secded/i4: correctable slots
    ASSERT_STREQ(g.label, "secded/i4");
    const InterleaveMap map(g.code->codewordBits(), g.degree);
    const LineCodec line(*g.code, map);

    for (int trial = 0; trial < 100; ++trial) {
        const std::vector<BitVector> words = randomWords(g, rng);
        BitVector row(map.rowBits());
        line.encodeLine(words, row);

        // 0..degree single-bit slot errors (correctable), sometimes a
        // double flip in one slot (uncorrectable).
        const size_t dirty = rng.nextBelow(g.degree + 1);
        const bool poison = trial % 5 == 0 && dirty > 0;
        for (size_t s = 0; s < dirty; ++s) {
            const size_t bit = rng.nextBelow(g.code->codewordBits());
            row.flip(map.physicalColumn(s, bit));
            if (poison && s == 0) {
                const size_t other =
                    (bit + 1) % g.code->codewordBits();
                row.flip(map.physicalColumn(s, other));
            }
        }

        // Reference: the historical per-slot loop.
        BitVector refRow = row;
        bool refOk = true;
        for (size_t slot = 0; slot < map.degree(); ++slot) {
            DecodeResult d =
                g.code->decode(map.extractWord(refRow, slot));
            if (d.uncorrectable()) {
                refOk = false;
                break;
            }
            if (d.corrected())
                map.depositWord(refRow, slot, g.code->encode(d.data));
        }

        for (SimdBackend b : availableBackends()) {
            ScopedSimdBackend guard(b);
            BitVector got = row;
            bool changed = false;
            const bool ok = line.correctLine(got, changed);
            EXPECT_EQ(ok, refOk) << simdBackendName(b);
            if (ok) {
                EXPECT_EQ(got, refRow);
                EXPECT_EQ(changed, got != row);
                EXPECT_TRUE(line.lineClean(got));
            }
        }
    }
}

TEST(LineCodec, CorrectLineLeavesACleanLineUnchanged)
{
    // On a fused geometry a clean line returns from the fold alone; on
    // every geometry and tier it must report success and no change.
    Rng rng(54);
    for (const Geometry &g : geometries()) {
        const InterleaveMap map(g.code->codewordBits(), g.degree);
        const LineCodec line(*g.code, map);
        const std::vector<BitVector> words = randomWords(g, rng);
        BitVector clean(map.rowBits());
        line.encodeLine(words, clean);
        for (SimdBackend b : availableBackends()) {
            ScopedSimdBackend guard(b);
            BitVector row = clean;
            bool changed = true;
            EXPECT_TRUE(line.correctLine(row, changed))
                << g.label << " backend=" << simdBackendName(b);
            EXPECT_FALSE(changed) << g.label;
            EXPECT_EQ(row, clean) << g.label;
        }
    }
}

TEST(LineCodec, EncodeLineRoundTripsThroughExtract)
{
    Rng rng(53);
    for (const Geometry &g : geometries()) {
        const InterleaveMap map(g.code->codewordBits(), g.degree);
        const LineCodec line(*g.code, map);
        const std::vector<BitVector> words = randomWords(g, rng);
        BitVector row(map.rowBits());
        line.encodeLine(words, row);
        EXPECT_TRUE(line.lineClean(row)) << g.label;
        for (size_t s = 0; s < g.degree; ++s) {
            const DecodeResult d =
                g.code->decode(map.extractWord(row, s));
            EXPECT_TRUE(d.clean());
            EXPECT_EQ(d.data, words[s]) << g.label << " slot " << s;
        }
    }
}

} // namespace
} // namespace tdc
