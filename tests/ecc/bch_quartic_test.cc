/**
 * @file
 * Exhaustive verification of the BCH locator at degree 4, mirroring
 * the exhaustive degree-3 suite in bch_decode_diff_test.cc: on a
 * small-field t=4 code, every 4-subset of codeword positions must
 * decode back to exactly those positions, with the naive oracle
 * agreeing on subsampled patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "../oracles/bch_naive.hh"

namespace tdc
{
namespace
{

void
expectCorrectsExactly(const BchCode &code, const BitVector &cw,
                      const std::vector<size_t> &flipped)
{
    const DecodeResult d = code.decode(cw);
    ASSERT_EQ(int(d.status), int(DecodeStatus::kCorrected))
        << "flips at " << flipped[0] << "," << flipped[1] << ","
        << flipped[2] << "," << flipped[3];
    std::vector<size_t> got = d.correctedPositions;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, flipped);
}

TEST(BchQuartic, EveryFourErrorPatternLocatesExhaustively)
{
    // Small field so the full C(n,4) sweep stays cheap; t = 4 makes
    // every quadruple correctable and drives the locator to degree 4.
    const BchCode code(16, 4);
    const size_t n = code.codewordBits();
    ASSERT_LE(n, 48u) << "geometry grew; exhaustive sweep too big";

    Rng rng(41);
    BitVector data(code.dataBits());
    for (size_t i = 0; i < data.size(); ++i)
        data.set(i, rng.nextBool());
    const BitVector clean = code.encode(data);

    // The deflating Chien sweep on every quadruple; the naive oracle
    // (full-scan Chien search) on a subsample, required to agree.
    size_t combo = 0;
    for (size_t a = 0; a < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) {
            for (size_t c = b + 1; c < n; ++c) {
                for (size_t d = c + 1; d < n; ++d, ++combo) {
                    BitVector cw = clean;
                    cw.flip(a);
                    cw.flip(b);
                    cw.flip(c);
                    cw.flip(d);
                    const std::vector<size_t> flips = {a, b, c, d};

                    expectCorrectsExactly(code, cw, flips);
                    if (combo % 13 == 0) {
                        const DecodeResult fast = code.decode(cw);
                        const DecodeResult naive =
                            oracle::decodeNaive(code, cw);
                        ASSERT_EQ(int(naive.status), int(fast.status));
                        ASSERT_EQ(naive.data, fast.data);
                        ASSERT_EQ(naive.correctedPositions,
                                  fast.correctedPositions);
                    }
                }
            }
        }
    }
    EXPECT_GT(combo, 10000u); // sanity: the sweep really ran
}

TEST(BchQuartic, BeyondCapacityQuadrupleNeighborhoodsAgreeWithOracle)
{
    // 5 and 6 random errors on the same small code: the verdict
    // (usually uncorrectable, occasionally a legitimate t-bounded
    // miscorrection) must match the naive oracle.
    const BchCode code(16, 4);
    Rng rng(42);
    for (int trial = 0; trial < 400; ++trial) {
        BitVector data(code.dataBits());
        for (size_t i = 0; i < data.size(); ++i)
            data.set(i, rng.nextBool());
        BitVector cw = code.encode(data);
        const size_t nerrs = 5 + trial % 2;
        for (size_t i = 0; i < nerrs; ++i)
            cw.flip(size_t(rng.nextBelow(cw.size())));

        const DecodeResult naive = oracle::decodeNaive(code, cw);
        const DecodeResult fast = code.decode(cw);
        EXPECT_EQ(int(fast.status), int(naive.status));
        EXPECT_EQ(fast.data, naive.data);
        EXPECT_EQ(fast.correctedPositions, naive.correctedPositions);
    }
}

TEST(BchQuartic, DegreeFourPathsCoverShiftAndDeflation)
{
    // Wider field sanity: random quadruples on the paper's QECPED
    // inner code, roots anywhere in the shortened length, so the
    // sweep deflates four times from every kind of starting point
    // over many trials.
    const BchCode code(64, 4);
    const size_t n = code.codewordBits();
    Rng rng(43);
    for (int trial = 0; trial < 3000; ++trial) {
        BitVector cw = code.encode(BitVector(code.dataBits()));
        std::vector<size_t> flips;
        while (flips.size() < 4) {
            const size_t p = rng.nextBelow(n);
            bool dup = false;
            for (size_t q : flips)
                dup |= q == p;
            if (!dup)
                flips.push_back(p);
        }
        for (size_t p : flips)
            cw.flip(p);
        std::sort(flips.begin(), flips.end());
        expectCorrectsExactly(code, cw, flips);
    }
}

} // namespace
} // namespace tdc
