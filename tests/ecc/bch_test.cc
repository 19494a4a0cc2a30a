#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/code_factory.hh"

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

TEST(BchCode, PaperGeometries64)
{
    // Check-bit counts the paper quotes for 64-bit words (Figure 3
    // uses the (121,64) OECNED; extended codes add the parity bit).
    ExtendedBchCode dec(64, 2, "DECTED");
    ExtendedBchCode qec(64, 4, "QECPED");
    ExtendedBchCode oec(64, 8, "OECNED");
    EXPECT_EQ(dec.codewordBits(), 79u); // 64 + 14 + 1
    EXPECT_EQ(qec.codewordBits(), 93u); // 64 + 28 + 1
    EXPECT_EQ(oec.codewordBits(), 121u); // 64 + 56 + 1: paper's (121,64)
}

TEST(BchCode, PaperGeometries256)
{
    ExtendedBchCode dec(256, 2, "DECTED");
    ExtendedBchCode qec(256, 4, "QECPED");
    ExtendedBchCode oec(256, 8, "OECNED");
    EXPECT_EQ(dec.checkBits(), 19u); // 2*9 + 1
    EXPECT_EQ(qec.checkBits(), 37u); // 4*9 + 1
    EXPECT_EQ(oec.checkBits(), 73u); // 8*9 + 1
}

struct BchParam
{
    size_t k;
    size_t t;
};

class BchCodeTest : public ::testing::TestWithParam<BchParam>
{
  protected:
    BchCodeTest() : code(GetParam().k, GetParam().t) {}
    BchCode code;
};

TEST_P(BchCodeTest, CleanRoundTrip)
{
    Rng rng(50);
    const size_t k = GetParam().k;
    for (int trial = 0; trial < 30; ++trial) {
        BitVector data(k);
        for (size_t i = 0; i < k; ++i)
            data.set(i, rng.nextBool());
        auto result = code.decode(code.encode(data));
        ASSERT_TRUE(result.clean());
        ASSERT_EQ(result.data, data);
    }
}

TEST_P(BchCodeTest, CorrectsUpToTErrors)
{
    Rng rng(51);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    for (size_t nerrs = 1; nerrs <= t; ++nerrs) {
        for (int trial = 0; trial < 25; ++trial) {
            BitVector data(k);
            for (size_t i = 0; i < k; ++i)
                data.set(i, rng.nextBool());
            BitVector cw = code.encode(data);
            injectRandom(cw, nerrs, rng);
            auto result = code.decode(cw);
            ASSERT_TRUE(result.corrected())
                << "k=" << k << " t=" << t << " nerrs=" << nerrs;
            ASSERT_EQ(result.data, data);
            ASSERT_EQ(result.correctedPositions.size(), nerrs);
        }
    }
}

TEST_P(BchCodeTest, CorrectsAdjacentBursts)
{
    // Clustered (burst) errors are the paper's threat model; any burst
    // of <= t bits is a fortiori correctable.
    Rng rng(52);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    BitVector data(k);
    for (size_t i = 0; i < k; ++i)
        data.set(i, rng.nextBool());
    const BitVector cw = code.encode(data);
    for (size_t start = 0; start + t <= cw.size(); start += 7) {
        BitVector bad = cw;
        for (size_t i = 0; i < t; ++i)
            bad.flip(start + i);
        auto result = code.decode(bad);
        ASSERT_TRUE(result.corrected()) << "start " << start;
        ASSERT_EQ(result.data, data);
    }
}

TEST_P(BchCodeTest, NeverDecodesTPlusOneAsClean)
{
    // t+1 errors may miscorrect (inner code only guarantees detect at
    // t+1 via the extended wrapper) but can never produce a zero
    // syndrome: distance is > t+1.
    Rng rng(53);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    BitVector data(k);
    for (size_t i = 0; i < k; ++i)
        data.set(i, rng.nextBool());
    const BitVector cw = code.encode(data);
    for (int trial = 0; trial < 50; ++trial) {
        BitVector bad = cw;
        injectRandom(bad, t + 1, rng);
        EXPECT_FALSE(code.decode(bad).clean());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BchCodeTest,
    ::testing::Values(BchParam{16, 2}, BchParam{32, 2}, BchParam{64, 2},
                      BchParam{64, 4}, BchParam{64, 8}, BchParam{48, 4},
                      BchParam{128, 4}, BchParam{256, 2},
                      BchParam{256, 8}));

class ExtendedBchTest : public ::testing::TestWithParam<BchParam>
{
  protected:
    ExtendedBchTest() : code(GetParam().k, GetParam().t, "EXT") {}
    ExtendedBchCode code;
};

TEST_P(ExtendedBchTest, CorrectsUpToT)
{
    Rng rng(54);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    for (size_t nerrs = 1; nerrs <= t; ++nerrs) {
        for (int trial = 0; trial < 20; ++trial) {
            BitVector data(k);
            for (size_t i = 0; i < k; ++i)
                data.set(i, rng.nextBool());
            BitVector cw = code.encode(data);
            injectRandom(cw, nerrs, rng);
            auto result = code.decode(cw);
            ASSERT_TRUE(result.corrected());
            ASSERT_EQ(result.data, data);
        }
    }
}

TEST_P(ExtendedBchTest, DetectsTPlusOneErrors)
{
    // This is the "xED" in DECTED/QECPED/OECNED: t+1 random errors are
    // guaranteed detected (never silently miscorrected) thanks to the
    // overall parity bit.
    Rng rng(55);
    const size_t k = GetParam().k;
    const size_t t = GetParam().t;
    BitVector data(k);
    for (size_t i = 0; i < k; ++i)
        data.set(i, rng.nextBool());
    const BitVector cw = code.encode(data);
    for (int trial = 0; trial < 100; ++trial) {
        BitVector bad = cw;
        injectRandom(bad, t + 1, rng);
        auto result = code.decode(bad);
        EXPECT_TRUE(result.uncorrectable())
            << "t+1 errors must be flagged, not miscorrected";
    }
}

TEST_P(ExtendedBchTest, ParityBitErrorAloneIsCorrected)
{
    Rng rng(56);
    const size_t k = GetParam().k;
    BitVector data(k);
    for (size_t i = 0; i < k; ++i)
        data.set(i, rng.nextBool());
    BitVector cw = code.encode(data);
    cw.flip(cw.size() - 1);
    auto result = code.decode(cw);
    ASSERT_TRUE(result.corrected());
    EXPECT_EQ(result.data, data);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExtendedBchTest,
    ::testing::Values(BchParam{64, 2}, BchParam{64, 4}, BchParam{64, 8},
                      BchParam{256, 2}, BchParam{48, 2}));

TEST(BchCode, RowWeightAccessors)
{
    BchCode code(64, 2);
    EXPECT_GT(code.maxRowWeight(), 1u);
    EXPECT_LE(code.maxRowWeight(), 65u);
    EXPECT_GT(code.totalRowWeight(), code.checkBits());
}

TEST(BchCode, RowWeightsMatchTheUnitVectorOracle)
{
    // The constructor walks the H-matrix columns x^(r+j) mod g(x) one
    // LFSR step at a time; the oracle encodes each unit data vector.
    // DECTED, QECPED and OECNED over the 64- and 256-bit words.
    for (size_t k : {size_t(64), size_t(256)}) {
        for (size_t t : {size_t(2), size_t(4), size_t(8)}) {
            const BchCode code(k, t);
            std::vector<size_t> weights(code.checkBits(), 0);
            for (size_t j = 0; j < k; ++j) {
                BitVector unit(k);
                unit.set(j, true);
                const BitVector col = code.computeCheck(unit);
                for (size_t i = 0; i < weights.size(); ++i)
                    weights[i] += col.get(i);
            }
            // Both accessors count each row's stored check bit too.
            size_t total = code.checkBits();
            for (size_t w : weights)
                total += w;
            EXPECT_EQ(code.maxRowWeight(),
                      *std::max_element(weights.begin(), weights.end()) + 1)
                << k << " bits, t=" << t;
            EXPECT_EQ(code.totalRowWeight(), total)
                << k << " bits, t=" << t;
        }
    }
}

TEST(BchCode, GeneratorDividesEncoding)
{
    // Property: every codeword polynomial must evaluate to zero at
    // alpha^1..alpha^2t (that is what "syndromes are zero" means).
    BchCode code(32, 3);
    Rng rng(57);
    for (int trial = 0; trial < 10; ++trial) {
        BitVector data(32, rng.next());
        auto result = code.decode(code.encode(data));
        EXPECT_TRUE(result.clean());
    }
}

TEST(CodeFactory, AllKindsConstructAndRoundTrip)
{
    Rng rng(58);
    for (CodeKind kind :
         {CodeKind::kParity, CodeKind::kEdc8, CodeKind::kEdc16,
          CodeKind::kEdc32, CodeKind::kSecDed, CodeKind::kDecTed,
          CodeKind::kQecPed, CodeKind::kOecNed}) {
        CodePtr code = makeCode(kind, 64);
        ASSERT_NE(code, nullptr);
        BitVector data(64, rng.next());
        auto result = code->decode(code->encode(data));
        EXPECT_TRUE(result.clean()) << codeKindName(kind);
        EXPECT_EQ(result.data, data) << codeKindName(kind);
    }
}

TEST(CodeFactory, CorrectionCapabilities)
{
    EXPECT_EQ(makeCode(CodeKind::kSecDed, 64)->correctCapability(), 1u);
    EXPECT_EQ(makeCode(CodeKind::kDecTed, 64)->correctCapability(), 2u);
    EXPECT_EQ(makeCode(CodeKind::kQecPed, 64)->correctCapability(), 4u);
    EXPECT_EQ(makeCode(CodeKind::kOecNed, 64)->correctCapability(), 8u);
    EXPECT_EQ(makeCode(CodeKind::kEdc8, 64)->correctCapability(), 0u);
}

TEST(CodeFactory, HammingDistancesMatchPaperTable)
{
    // Figure 1's legend: SECDED HD=4, DECTED HD=6, QECPED HD=10,
    // OECNED HD=18.
    EXPECT_EQ(makeCode(CodeKind::kSecDed, 64)->minDistance(), 4u);
    EXPECT_EQ(makeCode(CodeKind::kDecTed, 64)->minDistance(), 6u);
    EXPECT_EQ(makeCode(CodeKind::kQecPed, 64)->minDistance(), 10u);
    EXPECT_EQ(makeCode(CodeKind::kOecNed, 64)->minDistance(), 18u);
}

} // namespace
} // namespace tdc
