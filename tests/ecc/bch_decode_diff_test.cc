/**
 * @file
 * Differential tests pinning the table-driven BCH decode engine
 * (byte-table syndromes, inversion-free Berlekamp-Massey, closed-form
 * + deflating-Chien error location) bit-exact against the
 * element-at-a-time oracle in tests/oracles/bch_naive.hh, in the same
 * spirit as the word-parallel access-path differentials of the
 * interleave layer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "../oracles/bch_naive.hh"

namespace tdc
{
namespace
{

/** Inject @p nerrs random distinct flips into @p cw. */
void
injectRandom(BitVector &cw, size_t nerrs, Rng &rng)
{
    std::vector<size_t> positions;
    while (positions.size() < nerrs) {
        const size_t p = rng.nextBelow(cw.size());
        bool dup = false;
        for (size_t q : positions)
            dup |= q == p;
        if (!dup)
            positions.push_back(p);
    }
    for (size_t p : positions)
        cw.flip(p);
}

void
expectSameDecode(const BchCode &code, const BitVector &cw,
                 const char *what)
{
    const DecodeResult fast = code.decode(cw);
    const DecodeResult naive = oracle::decodeNaive(code, cw);
    ASSERT_EQ(int(fast.status), int(naive.status)) << what;
    ASSERT_EQ(fast.data, naive.data) << what;
    ASSERT_EQ(fast.correctedPositions, naive.correctedPositions) << what;
    ASSERT_EQ(code.syndromeClean(cw), naive.clean()) << what;
}

struct BchParam
{
    size_t k;
    size_t t;
};

class BchDecodeDiffTest : public ::testing::TestWithParam<BchParam>
{
  protected:
    BchDecodeDiffTest() : code(GetParam().k, GetParam().t) {}
    BchCode code;
};

TEST_P(BchDecodeDiffTest, RandomErrorPatternsMatchOracle)
{
    // 0 .. t+2 random errors: clean, every correctable count, and
    // beyond-capacity patterns where the uncorrectable verdicts (and
    // any miscorrection the inner code is entitled to) must agree
    // exactly.
    Rng rng(60);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    for (size_t nerrs = 0; nerrs <= t + 2; ++nerrs) {
        for (int trial = 0; trial < 40; ++trial) {
            BitVector data(k);
            for (size_t i = 0; i < k; ++i)
                data.set(i, rng.nextBool());
            BitVector cw = code.encode(data);
            injectRandom(cw, nerrs, rng);
            expectSameDecode(code, cw,
                             ("nerrs=" + std::to_string(nerrs)).c_str());
        }
    }
}

TEST_P(BchDecodeDiffTest, BurstPatternsMatchOracle)
{
    // Contiguous bursts walk every alignment, covering check-bit and
    // data/check straddling positions systematically.
    Rng rng(61);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    BitVector data(k);
    for (size_t i = 0; i < k; ++i)
        data.set(i, rng.nextBool());
    const BitVector cw = code.encode(data);
    for (size_t width = 1; width <= t + 1; ++width) {
        for (size_t start = 0; start + width <= cw.size(); start += 3) {
            BitVector bad = cw;
            for (size_t i = 0; i < width; ++i)
                bad.flip(start + i);
            expectSameDecode(code, bad,
                             ("burst width=" + std::to_string(width) +
                              " start=" + std::to_string(start))
                                 .c_str());
        }
    }
}

// Every factory geometry (the DECTED/QECPED/OECNED inner codes at
// paper word widths) plus degree-odd/even field corners: m=5 (k=16),
// m=7 (k=64), m=8 (k=128, order divisible by 3), m=9 (k=256), and a
// data width off the byte grid (k=100), whose data/check boundary
// falls inside one syndrome-table byte.
INSTANTIATE_TEST_SUITE_P(
    Geometries, BchDecodeDiffTest,
    ::testing::Values(BchParam{16, 2}, BchParam{32, 2}, BchParam{64, 2},
                      BchParam{64, 3}, BchParam{64, 4}, BchParam{64, 8},
                      BchParam{48, 4}, BchParam{128, 4},
                      BchParam{128, 3}, BchParam{256, 2},
                      BchParam{256, 8}, BchParam{100, 4}));

TEST(BchDecodeDiff, ExhaustiveTriplesSmallCode)
{
    // Every 3-bit pattern on a small t=3 code: the closed-form cubic
    // solver (linearized-kernel path) sees every split/non-split case
    // the geometry can produce, compared against the oracle.
    BchCode code(16, 3);
    Rng rng(62);
    BitVector data(16);
    for (size_t i = 0; i < 16; ++i)
        data.set(i, rng.nextBool());
    const BitVector cw = code.encode(data);
    const size_t n = cw.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            for (size_t l = j + 1; l < n; ++l) {
                BitVector bad = cw;
                bad.flip(i);
                bad.flip(j);
                bad.flip(l);
                const DecodeResult fast = code.decode(bad);
                const DecodeResult naive = oracle::decodeNaive(code, bad);
                ASSERT_EQ(int(fast.status), int(naive.status))
                    << i << "," << j << "," << l;
                ASSERT_EQ(fast.data, naive.data)
                    << i << "," << j << "," << l;
                ASSERT_EQ(fast.correctedPositions,
                          naive.correctedPositions)
                    << i << "," << j << "," << l;
            }
        }
    }
}

TEST(BchDecodeDiff, ExtendedCodeStillCorrectsAndDetects)
{
    // End-to-end sanity through the extended wrapper on the paper's
    // OECNED geometry: the fast inner engine must preserve the
    // correct-up-to-t / detect-t-plus-1 contract.
    ExtendedBchCode code(64, 8, "OECNED");
    Rng rng(63);
    for (int trial = 0; trial < 50; ++trial) {
        BitVector data(64, rng.next());
        BitVector cw = code.encode(data);
        ASSERT_TRUE(code.syndromeClean(cw));
        injectRandom(cw, 8, rng);
        ASSERT_FALSE(code.syndromeClean(cw));
        const DecodeResult res = code.decode(cw);
        ASSERT_TRUE(res.corrected());
        ASSERT_EQ(res.data, data);
    }
    for (int trial = 0; trial < 50; ++trial) {
        BitVector data(64, rng.next());
        BitVector cw = code.encode(data);
        injectRandom(cw, 9, rng);
        EXPECT_FALSE(code.syndromeClean(cw));
        EXPECT_TRUE(code.decode(cw).uncorrectable());
    }
}

} // namespace
} // namespace tdc
