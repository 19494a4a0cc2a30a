/**
 * @file
 * Differential tests pinning the word-parallel codec paths (table-
 * driven Hsiao, folded EDC parity and its one-pass clean check,
 * byte-table BCH division) against naive bit-loop references kept
 * here as oracles, at byte-aligned and unaligned data widths.
 */

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/hsiao.hh"
#include "ecc/interleaved_parity.hh"

namespace tdc
{
namespace
{

BitVector
randomVector(Rng &rng, size_t nbits)
{
    BitVector v(nbits);
    for (size_t i = 0; i < nbits; ++i)
        v.set(i, rng.nextBool());
    return v;
}

// --- Hsiao oracle ---------------------------------------------------

/**
 * Re-derivation of the Hsiao H columns exactly as documented: all
 * odd-weight-(>=3) r-bit values, smallest weight first, ascending
 * numeric order within a weight; check columns are unit vectors.
 */
std::vector<uint64_t>
hsiaoColumnsRef(size_t k, size_t r)
{
    std::vector<uint64_t> cols;
    for (size_t w = 3; cols.size() < k && w <= r; w += 2) {
        for (uint64_t v = 0; v < (uint64_t(1) << r) && cols.size() < k;
             ++v) {
            if (size_t(std::popcount(v)) == w)
                cols.push_back(v);
        }
    }
    for (size_t i = 0; i < r; ++i)
        cols.push_back(uint64_t(1) << i);
    return cols;
}

/** Naive bit-at-a-time Hsiao check computation. */
BitVector
hsiaoCheckRef(const std::vector<uint64_t> &cols, size_t r,
              const BitVector &data)
{
    uint64_t acc = 0;
    for (size_t i = 0; i < data.size(); ++i) {
        if (data.get(i))
            acc ^= cols[i];
    }
    return BitVector(r, acc);
}

class HsiaoDiffTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(HsiaoDiffTest, CheckBitsMatchNaiveColumnXor)
{
    const size_t k = GetParam();
    HsiaoSecDedCode code(k);
    const auto cols = hsiaoColumnsRef(k, code.checkBits());
    Rng rng(500 + k);
    for (int trial = 0; trial < 100; ++trial) {
        const BitVector data = randomVector(rng, k);
        ASSERT_EQ(code.computeCheck(data),
                  hsiaoCheckRef(cols, code.checkBits(), data))
            << "trial " << trial;
    }
}

TEST_P(HsiaoDiffTest, EverySingleBitErrorIsCorrectedAtItsPosition)
{
    const size_t k = GetParam();
    HsiaoSecDedCode code(k);
    Rng rng(600 + k);
    const BitVector data = randomVector(rng, k);
    const BitVector cw = code.encode(data);
    for (size_t i = 0; i < cw.size(); ++i) {
        BitVector bad = cw;
        bad.flip(i);
        const DecodeResult res = code.decode(bad);
        ASSERT_TRUE(res.corrected()) << "position " << i;
        ASSERT_EQ(res.correctedPositions.size(), 1u);
        ASSERT_EQ(res.correctedPositions[0], i);
        ASSERT_EQ(res.data, data) << "position " << i;
    }
}

TEST_P(HsiaoDiffTest, EveryDoubleBitErrorIsDetected)
{
    const size_t k = GetParam();
    HsiaoSecDedCode code(k);
    Rng rng(700 + k);
    const BitVector cw = code.encode(randomVector(rng, k));
    for (size_t i = 0; i < cw.size(); ++i) {
        for (size_t j = i + 1; j < cw.size(); ++j) {
            BitVector bad = cw;
            bad.flip(i);
            bad.flip(j);
            ASSERT_TRUE(code.decode(bad).uncorrectable())
                << "positions " << i << "," << j;
        }
    }
}

TEST_P(HsiaoDiffTest, SyndromeCleanMatchesNaiveColumnXor)
{
    // The byte-table fold over whole codewords (clean, corrected and
    // detected patterns) against the column XOR of every set bit.
    const size_t k = GetParam();
    HsiaoSecDedCode code(k);
    const auto cols = hsiaoColumnsRef(k, code.checkBits());
    Rng rng(650 + k);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector cw = code.encode(randomVector(rng, k));
        for (size_t f = rng.nextBelow(4); f > 0; --f)
            cw.flip(size_t(rng.nextBelow(cw.size())));
        const bool clean =
            hsiaoCheckRef(cols, code.checkBits(), cw).none();
        ASSERT_EQ(code.syndromeClean(cw), clean) << "trial " << trial;
        ASSERT_EQ(code.decode(cw).clean(), clean) << "trial " << trial;
    }
}

// k = 12, 65, 100 and 129 are deliberately not byte-aligned: the
// byte-syndrome table then folds a data byte that is partly check
// columns, and a codeword byte that mixes data and check bits.
INSTANTIATE_TEST_SUITE_P(Widths, HsiaoDiffTest,
                         ::testing::Values(size_t(12), size_t(16),
                                           size_t(64), size_t(256),
                                           size_t(65), size_t(100),
                                           size_t(129)));

// --- EDCn oracle ----------------------------------------------------

/** Naive per-bit interleaved parity. */
BitVector
edcCheckRef(size_t n, const BitVector &data)
{
    BitVector check(n);
    for (size_t i = 0; i < data.size(); ++i) {
        if (data.get(i))
            check.flip(i % n);
    }
    return check;
}

struct EdcGeometry
{
    size_t k;
    size_t n;
};

class EdcDiffTest : public ::testing::TestWithParam<EdcGeometry>
{
};

TEST_P(EdcDiffTest, CheckBitsMatchNaiveClassParity)
{
    const auto [k, n] = GetParam();
    InterleavedParityCode code(k, n);
    Rng rng(800 + k * 7 + n);
    for (int trial = 0; trial < 100; ++trial) {
        const BitVector data = randomVector(rng, k);
        ASSERT_EQ(code.computeCheck(data), edcCheckRef(n, data))
            << "trial " << trial;
    }
}

TEST_P(EdcDiffTest, SyndromeFlagsExactlyTheFlippedClasses)
{
    const auto [k, n] = GetParam();
    InterleavedParityCode code(k, n);
    Rng rng(900 + k * 7 + n);
    const BitVector cw = code.encode(randomVector(rng, k));
    EXPECT_TRUE(code.syndrome(cw).none());
    // Every single-bit error (data or check region) flips exactly its
    // own parity class, and decode must report detection.
    for (size_t i = 0; i < cw.size(); ++i) {
        BitVector bad = cw;
        bad.flip(i);
        const BitVector syn = code.syndrome(bad);
        ASSERT_EQ(syn.popcount(), 1u) << "position " << i;
        const size_t cls = i < k ? i % n : i - k;
        ASSERT_TRUE(syn.get(cls)) << "position " << i;
        ASSERT_TRUE(code.decode(bad).uncorrectable()) << "position " << i;
    }
}

TEST_P(EdcDiffTest, SyndromeCleanMatchesNaiveClassParity)
{
    // Multi-bit patterns, including ones whose flips cancel within a
    // class: the one-pass clean check, the full syndrome and decode
    // must all agree with the recomputed class parity.
    const auto [k, n] = GetParam();
    InterleavedParityCode code(k, n);
    Rng rng(950 + k * 7 + n);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector cw = code.encode(randomVector(rng, k));
        for (size_t f = rng.nextBelow(5); f > 0; --f)
            cw.flip(size_t(rng.nextBelow(cw.size())));
        const bool clean =
            edcCheckRef(n, cw.slice(0, k)) == cw.slice(k, n);
        ASSERT_EQ(code.syndromeClean(cw), clean) << "trial " << trial;
        ASSERT_EQ(code.syndrome(cw).none(), clean) << "trial " << trial;
        ASSERT_EQ(code.decode(cw).clean(), clean) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EdcDiffTest,
    ::testing::Values(
        // Paper codes: EDC8/64, EDC16/256, EDC32.
        EdcGeometry{64, 8}, EdcGeometry{256, 16}, EdcGeometry{256, 32},
        // Data widths off the word grid, single parity, EDC64.
        EdcGeometry{72, 8}, EdcGeometry{100, 4}, EdcGeometry{65, 1},
        EdcGeometry{64, 64}));

TEST(EdcDiff, RejectsClassCountsThatDoNotDivide64)
{
    for (size_t n : {0u, 3u, 6u, 24u, 128u})
        EXPECT_THROW(InterleavedParityCode(192, n), std::invalid_argument)
            << "n=" << n;
}

// --- BCH oracle -----------------------------------------------------

/** Naive bit-serial LFSR division of x^r * d(x) by g(x). */
BitVector
bchRemainderRef(const std::vector<bool> &gen, size_t r,
                const BitVector &data)
{
    BitVector rem(r);
    for (size_t j = data.size(); j-- > 0;) {
        const bool feedback = rem.get(r - 1) ^ data.get(j);
        for (size_t i = r - 1; i > 0; --i)
            rem.set(i, rem.get(i - 1) ^ (feedback && gen[i]));
        rem.set(0, feedback && gen[0]);
    }
    return rem;
}

TEST(BchDiff, ByteTableDivisionMatchesBitSerialReference)
{
    // DECTED/QECPED/OECNED inner codes on the byte grid (k = 64) and
    // off it (k = 65, 100, 129: a zero-padded top byte), plus
    // remainders past one word: OECNED at k = 256 (r = 72) and 512
    // (r = 80, the grammar's widest) and t = 11 at k = 1000 (r = 121).
    struct Geometry
    {
        size_t k, t;
    };
    std::vector<Geometry> geometries;
    for (size_t k : {64u, 65u, 100u, 129u})
        for (size_t t : {2u, 4u, 8u})
            geometries.push_back({k, t});
    geometries.push_back({256, 8});
    geometries.push_back({512, 8});
    geometries.push_back({1000, 11});
    for (const auto [k, t] : geometries) {
        BchCode code(k, t);
        Rng rng(1000 + k * 16 + t);
        for (int trial = 0; trial < 50; ++trial) {
            const BitVector data = randomVector(rng, k);
            ASSERT_EQ(code.computeCheck(data),
                      bchRemainderRef(code.generator(), code.checkBits(),
                                      data))
                << "k=" << k << " t=" << t << " trial " << trial;
        }
    }
}

TEST(BchDiff, RejectsCorrectionBeyondTheTableEngine)
{
    EXPECT_NO_THROW(BchCode(64, BchCode::kMaxT));
    EXPECT_THROW(BchCode(64, BchCode::kMaxT + 1), std::invalid_argument);
    // r = 132 check bits: wider than the two-word division table.
    EXPECT_THROW(BchCode(1000, 12), std::invalid_argument);
}

TEST(BchDiff, ScratchReuseKeepsDecodesIndependent)
{
    // Back-to-back decodes through the cached scratch buffers must not
    // leak state: interleave clean and corrupted codewords.
    BchCode code(64, 2);
    Rng rng(1100);
    const BitVector a = randomVector(rng, 64);
    const BitVector b = randomVector(rng, 64);
    const BitVector cwA = code.encode(a);
    BitVector cwB = code.encode(b);
    cwB.flip(5);
    cwB.flip(40);
    for (int round = 0; round < 10; ++round) {
        const DecodeResult ra = code.decode(cwA);
        ASSERT_TRUE(ra.clean());
        ASSERT_EQ(ra.data, a);
        const DecodeResult rb = code.decode(cwB);
        ASSERT_TRUE(rb.corrected());
        ASSERT_EQ(rb.data, b);
    }
}

} // namespace
} // namespace tdc
