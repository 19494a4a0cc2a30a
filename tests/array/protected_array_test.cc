#include <gtest/gtest.h>

#include "array/fault.hh"
#include "array/protected_array.hh"
#include "common/rng.hh"
#include "ecc/code_factory.hh"

namespace tdc
{
namespace
{

/** Fill every word with a deterministic pseudo-random pattern. */
void
fill(ProtectedArray &arr, Rng &rng,
     std::vector<std::vector<BitVector>> &golden)
{
    golden.assign(arr.rows(),
                  std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            BitVector data(arr.dataBits());
            for (size_t b = 0; b < data.size(); ++b)
                data.set(b, rng.nextBool());
            arr.writeWord(r, s, data);
            golden[r][s] = data;
        }
    }
}

TEST(ProtectedArray, GeometryMatchesFigure3a)
{
    // Figure 3(a): 256x256 data bits as 4 x (72,64) SECDED words per
    // row -> 256x288 physical bits, 12.5% overhead.
    ProtectedArray arr(256, makeCode(CodeKind::kSecDed, 64), 4);
    EXPECT_EQ(arr.rows(), 256u);
    EXPECT_EQ(arr.cells().cols(), 288u);
    EXPECT_EQ(arr.words(), 1024u);
    EXPECT_DOUBLE_EQ(arr.storageOverhead(), 0.125);
}

TEST(ProtectedArray, CleanRoundTrip)
{
    Rng rng(90);
    ProtectedArray arr(16, makeCode(CodeKind::kSecDed, 64), 4);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            AccessResult res = arr.readWord(r, s);
            ASSERT_EQ(res.status, DecodeStatus::kClean);
            ASSERT_EQ(res.data, golden[r][s]);
        }
    }
}

TEST(ProtectedArray, SecdedIntv4CorrectsFourBitRowBursts)
{
    // The Figure 3(a) coverage claim: any contiguous row burst of
    // <= 4 bits lands on 4 different words (one bit each) and is
    // corrected by per-word SECDED.
    Rng rng(91);
    ProtectedArray arr(16, makeCode(CodeKind::kSecDed, 64), 4);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    FaultInjector inj(rng);

    for (size_t width = 1; width <= 4; ++width) {
        for (int trial = 0; trial < 30; ++trial) {
            const size_t row = rng.nextBelow(arr.rows());
            inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                                     .width = width,
                                     .rowLo = long(row)});
            for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
                AccessResult res = arr.readWord(row, s);
                ASSERT_TRUE(res.ok()) << "width " << width;
                ASSERT_EQ(res.data, golden[row][s]);
            }
            // readWord wrote corrections back; the row is clean now.
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                ASSERT_EQ(arr.peekWord(row, s).status,
                          DecodeStatus::kClean);
        }
    }
}

TEST(ProtectedArray, SecdedIntv4CannotCorrectWiderBursts)
{
    // A burst wider than degree puts >= 2 errors into some word:
    // SECDED detects but cannot correct -> data loss (the paper's
    // motivation for 2D coding).
    Rng rng(92);
    ProtectedArray arr(16, makeCode(CodeKind::kSecDed, 64), 4);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    FaultInjector inj(rng);

    const size_t row = 3;
    inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                             .width = 8,
                             .rowLo = long(row),
                             .colLo = 0});
    bool any_uncorrectable = false;
    for (size_t s = 0; s < arr.wordsPerRow(); ++s)
        any_uncorrectable |= !arr.readWord(row, s).ok();
    EXPECT_TRUE(any_uncorrectable);
}

TEST(ProtectedArray, OecnedIntv4Corrects32BitRowBursts)
{
    // Figure 3(b): (121,64) OECNED with 4-way interleaving corrects
    // 32-bit row bursts (8 bits per word, all correctable).
    Rng rng(93);
    ProtectedArray arr(8, makeCode(CodeKind::kOecNed, 64), 4);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    FaultInjector inj(rng);
    EXPECT_EQ(arr.contiguousCorrectWidth(), 32u);

    for (int trial = 0; trial < 20; ++trial) {
        const size_t row = rng.nextBelow(arr.rows());
        inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                                 .width = 32,
                                 .rowLo = long(row)});
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            AccessResult res = arr.readWord(row, s);
            ASSERT_TRUE(res.ok());
            ASSERT_EQ(res.data, golden[row][s]);
        }
    }
}

TEST(ProtectedArray, OecnedOverheadMatchesFigure3b)
{
    ProtectedArray arr(8, makeCode(CodeKind::kOecNed, 64), 4);
    EXPECT_NEAR(arr.storageOverhead(), 0.891, 0.001);
}

TEST(ProtectedArray, EdcDetectsButNeverCorrects)
{
    Rng rng(94);
    ProtectedArray arr(8, makeCode(CodeKind::kEdc8, 64), 4);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    FaultInjector inj(rng);

    const size_t row = 1;
    inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                             .width = 16,
                             .rowLo = long(row),
                             .colLo = 4});
    size_t detected = 0;
    for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
        AccessResult res = arr.readWord(row, s);
        detected += res.status == DecodeStatus::kDetectedUncorrectable;
    }
    EXPECT_GT(detected, 0u);
    EXPECT_EQ(arr.contiguousCorrectWidth(), 0u);
    EXPECT_EQ(arr.contiguousDetectWidth(), 32u);
}

TEST(ProtectedArray, StuckAtFaultCorrectedOnEveryRead)
{
    // Manufacture-time single-bit hard error under SECDED: corrected
    // in-line on every read (the yield-enhancement usage of ECC).
    Rng rng(95);
    ProtectedArray arr(4, makeCode(CodeKind::kSecDed, 64), 2);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    arr.cells().addStuckAt(2, 5, !arr.cells().readBit(2, 5));

    for (int pass = 0; pass < 3; ++pass) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            AccessResult res = arr.readWord(2, s);
            ASSERT_TRUE(res.ok());
            ASSERT_EQ(res.data, golden[2][s]);
        }
        // Rewrite pattern; the stuck cell re-corrupts the word.
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(2, s, golden[2][s]);
    }
}

TEST(ProtectedArray, PeekDoesNotRepair)
{
    Rng rng(96);
    ProtectedArray arr(4, makeCode(CodeKind::kSecDed, 64), 2);
    std::vector<std::vector<BitVector>> golden;
    fill(arr, rng, golden);
    arr.cells().flipBit(0, 0);
    AccessResult first = arr.peekWord(0, arr.interleave().slotOf(0));
    EXPECT_EQ(first.status, DecodeStatus::kCorrected);
    AccessResult second = arr.peekWord(0, arr.interleave().slotOf(0));
    EXPECT_EQ(second.status, DecodeStatus::kCorrected) << "peek repaired";
}

} // namespace
} // namespace tdc
