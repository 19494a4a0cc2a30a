/**
 * @file
 * Parameterized coverage-guarantee sweep for conventional 1D
 * protected arrays: for every (code, interleave) pair the paper
 * composes, every contiguous row burst up to the guaranteed width at
 * every offset must be covered (corrected or at least detected), and
 * the first width beyond the guarantee must show a counterexample.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "array/fault.hh"
#include "array/protected_array.hh"
#include "common/rng.hh"
#include "ecc/code_factory.hh"
#include "../core/word_trial.hh"

namespace tdc
{
namespace
{

/** (code kind, interleave degree) */
using SchemeParam = std::tuple<CodeKind, size_t>;

class BurstGuaranteeTest : public ::testing::TestWithParam<SchemeParam>
{
};

TEST_P(BurstGuaranteeTest, EveryBurstWithinGuaranteeIsCovered)
{
    const auto [kind, degree] = GetParam();
    Rng rng(uint64_t(degree) * 31 + size_t(kind));
    ProtectedArray arr(4, makeCode(kind, 64), degree);
    std::vector<std::vector<BitVector>> golden(
        arr.rows(), std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            golden[r][s] = BitVector(64, rng.next());
            storeWord(arr, r, s, golden[r][s]);
        }

    FaultInjector inj(rng);
    // Degree x the per-word guarantee: the paper's "EDC8+Intv4
    // detects 32-bit errors along a row" arithmetic.
    const size_t detect_w = degree * arr.code().burstDetectCapability();
    const size_t correct_w = degree * arr.code().correctCapability();
    const size_t row_bits = arr.cells().cols();

    for (size_t width = 1; width <= detect_w; ++width) {
        // Sweep offsets with a stride to keep runtime sane while
        // still covering every alignment class.
        for (size_t start = 0; start + width <= row_bits;
             start += (width <= 4 ? 1 : 7)) {
            inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                                     .width = width,
                                     .rowLo = 1,
                                     .colLo = long(start)});
            bool all_recovered = true;
            bool any_silent = false;
            for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
                AccessResult res = arr.readWord(1, s);
                if (!res.ok())
                    all_recovered = false;
                else if (res.data != golden[1][s])
                    any_silent = true;
            }
            ASSERT_FALSE(any_silent)
                << "silent corruption at width " << width << " start "
                << start;
            if (width <= correct_w) {
                ASSERT_TRUE(all_recovered)
                    << "width " << width << " start " << start;
            }
            // Restore the row for the next pattern.
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                storeWord(arr, 1, s, golden[1][s]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSchemes, BurstGuaranteeTest,
    ::testing::Values(SchemeParam{CodeKind::kSecDed, 2},
                      SchemeParam{CodeKind::kSecDed, 4},
                      SchemeParam{CodeKind::kEdc8, 4},
                      SchemeParam{CodeKind::kEdc16, 2},
                      SchemeParam{CodeKind::kDecTed, 4},
                      SchemeParam{CodeKind::kQecPed, 2}));

TEST(BurstGuarantee, OecnedIntv4CoversFigure3bExactly)
{
    // The paper's (b) design point: verify the 32-bit guarantee and
    // exhibit the cliff right above it (a 33+-bit burst puts 9 bits
    // in some word, beyond t=8).
    Rng rng(77);
    ProtectedArray arr(2, makeCode(CodeKind::kOecNed, 64), 4);
    std::vector<BitVector> golden(arr.wordsPerRow());
    for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
        golden[s] = BitVector(64, rng.next());
        storeWord(arr, 0, s, golden[s]);
    }
    FaultInjector inj(rng);
    EXPECT_EQ(arr.wordsPerRow() * arr.code().correctCapability(), 32u);

    inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                             .width = 32,
                             .rowLo = 0,
                             .colLo = 0});
    for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
        AccessResult res = arr.readWord(0, s);
        ASSERT_TRUE(res.ok());
        ASSERT_EQ(res.data, golden[s]);
    }

    // 36 contiguous bits = 9 per word: at least one word must fail
    // (t=8), and with t+1 errors detection is still guaranteed.
    inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                             .width = 36,
                             .rowLo = 0,
                             .colLo = 0});
    bool any_uncorrectable = false;
    for (size_t s = 0; s < arr.wordsPerRow(); ++s)
        any_uncorrectable |= !arr.readWord(0, s).ok();
    EXPECT_TRUE(any_uncorrectable);
}

} // namespace
} // namespace tdc
