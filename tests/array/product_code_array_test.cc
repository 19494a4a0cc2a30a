#include <gtest/gtest.h>

#include "array/fault.hh"
#include "array/product_code_array.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

ProductCodeArray
filled(size_t rows, size_t cols, Rng &rng,
       std::vector<BitVector> *golden = nullptr)
{
    ProductCodeArray arr(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
        BitVector row(cols);
        for (size_t c = 0; c < cols; ++c)
            row.set(c, rng.nextBool());
        arr.writeRow(r, row);
        if (golden)
            golden->push_back(row);
    }
    return arr;
}

TEST(ProductCodeArray, CleanAfterWrites)
{
    Rng rng(1);
    ProductCodeArray arr = filled(32, 64, rng);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_TRUE(rep.clean);
    EXPECT_EQ(rep.corrected, 0u);
}

TEST(ProductCodeArray, StorageOverheadIsTiny)
{
    ProductCodeArray arr(256, 256);
    // (256+256) / 256*256 ~ 0.8%: the area efficiency that made
    // product codes attractive (Tanner).
    EXPECT_NEAR(arr.storageOverhead(), 512.0 / 65536.0, 1e-12);
}

TEST(ProductCodeArray, CorrectsEverySingleBit)
{
    Rng rng(2);
    std::vector<BitVector> golden;
    ProductCodeArray arr = filled(16, 32, rng, &golden);
    for (int trial = 0; trial < 100; ++trial) {
        const size_t r = rng.nextBelow(16);
        const size_t c = rng.nextBelow(32);
        arr.cells().flipBit(r, c);
        const ProductCodeReport rep = arr.checkAndCorrect();
        ASSERT_TRUE(rep.clean);
        ASSERT_EQ(rep.corrected, 1u);
        ASSERT_EQ(arr.readRow(r), golden[r]);
    }
}

TEST(ProductCodeArray, CorrectsMultipleErrorsInOneRow)
{
    Rng rng(3);
    std::vector<BitVector> golden;
    ProductCodeArray arr = filled(16, 32, rng, &golden);
    // 3 errors confined to one row: one bad row, three bad columns —
    // unambiguous intersection.
    arr.cells().flipBit(5, 1);
    arr.cells().flipBit(5, 9);
    arr.cells().flipBit(5, 20);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_TRUE(rep.clean);
    EXPECT_EQ(rep.corrected, 3u);
    EXPECT_EQ(arr.readRow(5), golden[5]);
}

TEST(ProductCodeArray, CorrectsOddErrorsInOneColumn)
{
    // Three flips in one column: three rows flagged, one column
    // flagged (odd count) -> unambiguous intersection.
    Rng rng(4);
    std::vector<BitVector> golden;
    ProductCodeArray arr = filled(16, 32, rng, &golden);
    arr.cells().flipBit(2, 7);
    arr.cells().flipBit(9, 7);
    arr.cells().flipBit(12, 7);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_TRUE(rep.clean);
    EXPECT_EQ(rep.corrected, 3u);
    EXPECT_EQ(arr.readRow(2), golden[2]);
    EXPECT_EQ(arr.readRow(9), golden[9]);
    EXPECT_EQ(arr.readRow(12), golden[12]);
}

TEST(ProductCodeArray, EvenErrorsInOneColumnAreUncorrectable)
{
    // An even number of flips in the same column cancels the column
    // parity: the rows are flagged but no column is, so the errors
    // cannot be located (another cancellation 2D coding's interleaved
    // vertical dimension is designed around).
    Rng rng(8);
    ProductCodeArray arr = filled(16, 32, rng);
    arr.cells().flipBit(2, 7);
    arr.cells().flipBit(9, 7);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_FALSE(rep.clean);
    EXPECT_TRUE(rep.uncorrectable);
}

TEST(ProductCodeArray, DiagonalPairIsAmbiguous)
{
    // The classic product-code failure the paper's 2D scheme fixes:
    // flips at (3,4) and (8,11) flag rows {3,8} and columns {4,11};
    // the alternative placement {(3,11),(8,4)} explains the same
    // syndrome, so decoding must give up rather than guess.
    Rng rng(5);
    ProductCodeArray arr = filled(16, 32, rng);
    arr.cells().flipBit(3, 4);
    arr.cells().flipBit(8, 11);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_FALSE(rep.clean);
    EXPECT_TRUE(rep.uncorrectable);
}

TEST(ProductCodeArray, SolidBlockIsSilentlyInvisible)
{
    // A solid 2x2 block flips two bits in each affected row and two
    // in each affected column: every line parity stays even, both
    // syndromes are zero, and the corruption passes as clean. This is
    // the fundamental multi-bit weakness of plain HV product codes —
    // the paper's interleaved EDC dimensions are designed to avoid
    // exactly this cancellation for clusters within coverage.
    Rng rng(6);
    std::vector<BitVector> golden;
    ProductCodeArray arr = filled(16, 32, rng, &golden);
    arr.cells().flipBit(3, 4);
    arr.cells().flipBit(3, 11);
    arr.cells().flipBit(8, 4);
    arr.cells().flipBit(8, 11);
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_TRUE(rep.clean);
    EXPECT_NE(arr.readRow(3), golden[3]) << "corruption is silent";
}

TEST(ProductCodeArray, BurstInOneRowCorrected)
{
    Rng rng(7);
    std::vector<BitVector> golden;
    ProductCodeArray arr = filled(32, 64, rng, &golden);
    FaultInjector inj(rng);
    inj.inject(arr.cells(),
               {.shape = FaultShape::kRowBurst, .width = 7, .rowLo = 10});
    const ProductCodeReport rep = arr.checkAndCorrect();
    EXPECT_TRUE(rep.clean);
    EXPECT_EQ(rep.corrected, 7u);
    EXPECT_EQ(arr.readRow(10), golden[10]);
}

} // namespace
} // namespace tdc
