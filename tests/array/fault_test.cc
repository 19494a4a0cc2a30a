#include <gtest/gtest.h>

#include <set>

#include "array/fault.hh"

namespace tdc
{
namespace
{

TEST(FaultInjector, SingleBitFlipsExactlyOneCell)
{
    Rng rng(80);
    FaultInjector inj(rng);
    MemoryArray arr(16, 16);
    const FaultEvent ev = inj.injectSingleBit(arr);
    EXPECT_EQ(ev.cells.size(), 1u);
    EXPECT_EQ(ev.width(), 1u);
    EXPECT_EQ(ev.height(), 1u);
    size_t flipped = 0;
    for (size_t r = 0; r < 16; ++r)
        flipped += arr.readRow(r).popcount();
    EXPECT_EQ(flipped, 1u);
}

TEST(FaultInjector, RowBurstIsContiguous)
{
    Rng rng(81);
    FaultInjector inj(rng);
    MemoryArray arr(8, 64);
    const FaultEvent ev = inj.injectRowBurst(arr, 5, 12);
    EXPECT_EQ(ev.cells.size(), 12u);
    EXPECT_EQ(ev.width(), 12u);
    EXPECT_EQ(ev.height(), 1u);
    const BitVector row = arr.readRow(5);
    EXPECT_EQ(row.popcount(), 12u);
    EXPECT_EQ(row.findLast() - row.findFirst() + 1, 12u);
}

TEST(FaultInjector, RowBurstAtFixedOffset)
{
    Rng rng(82);
    FaultInjector inj(rng);
    MemoryArray arr(4, 32);
    const FaultEvent ev = inj.injectRowBurst(arr, 0, 4, 10);
    EXPECT_EQ(ev.colLo, 10u);
    EXPECT_EQ(ev.colHi, 13u);
    for (size_t c = 10; c < 14; ++c)
        EXPECT_TRUE(arr.readBit(0, c));
}

TEST(FaultInjector, ColumnBurstIsVertical)
{
    Rng rng(83);
    FaultInjector inj(rng);
    MemoryArray arr(64, 8);
    const FaultEvent ev = inj.injectColumnBurst(arr, 3, 20);
    EXPECT_EQ(ev.cells.size(), 20u);
    EXPECT_EQ(ev.height(), 20u);
    EXPECT_EQ(ev.width(), 1u);
    EXPECT_EQ(arr.readRow(ev.rowLo).popcount(), 1u);
    for (size_t r = ev.rowLo; r <= ev.rowHi; ++r)
        EXPECT_TRUE(arr.readBit(r, 3));
}

TEST(FaultInjector, SolidClusterFlipsEveryCell)
{
    Rng rng(84);
    FaultInjector inj(rng);
    MemoryArray arr(64, 64);
    const FaultEvent ev = inj.injectCluster(arr, 8, 8, 1.0);
    EXPECT_EQ(ev.cells.size(), 64u);
    EXPECT_EQ(ev.width(), 8u);
    EXPECT_EQ(ev.height(), 8u);
    for (size_t r = ev.rowLo; r <= ev.rowHi; ++r)
        for (size_t c = ev.colLo; c <= ev.colHi; ++c)
            EXPECT_TRUE(arr.readBit(r, c));
}

TEST(FaultInjector, SparseClusterStaysInsideBoundingBox)
{
    Rng rng(85);
    FaultInjector inj(rng);
    MemoryArray arr(128, 128);
    const FaultEvent ev = inj.injectCluster(arr, 16, 16, 0.4);
    EXPECT_GT(ev.cells.size(), 0u);
    for (auto [r, c] : ev.cells) {
        EXPECT_GE(r, ev.rowLo);
        EXPECT_LE(r, ev.rowHi);
        EXPECT_GE(c, ev.colLo);
        EXPECT_LE(c, ev.colHi);
    }
    // Every spanned row participates (footprint is exact).
    std::set<size_t> rows_hit;
    for (auto [r, c] : ev.cells)
        rows_hit.insert(r);
    EXPECT_EQ(rows_hit.size(), 16u);
}

TEST(FaultInjector, FullRowAndColumn)
{
    Rng rng(86);
    FaultInjector inj(rng);
    MemoryArray arr(32, 48);
    inj.injectFullRow(arr, 7);
    EXPECT_EQ(arr.readRow(7).popcount(), 48u);
    inj.injectFullColumn(arr, 11);
    // Row 7 column 11 flipped twice: back to zero.
    EXPECT_FALSE(arr.readBit(7, 11));
    EXPECT_TRUE(arr.readBit(0, 11));
    EXPECT_TRUE(arr.readBit(31, 11));
}

TEST(FaultInjector, HardFaultsAreStuckAt)
{
    Rng rng(87);
    FaultInjector inj(rng);
    MemoryArray arr(16, 16);
    const FaultEvent ev = inj.injectSingleBit(arr,
                                              FaultPersistence::kStuckAt);
    EXPECT_EQ(arr.faultCount(), 1u);
    auto [r, c] = ev.cells[0];
    const bool observed = arr.readBit(r, c);
    // Writing the complement must not change the observed value.
    arr.writeBit(r, c, !observed);
    EXPECT_EQ(arr.readBit(r, c), observed);
}

TEST(FaultEvent, DescribeMentionsShapeAndSize)
{
    Rng rng(89);
    FaultInjector inj(rng);
    MemoryArray arr(8, 8);
    const FaultEvent ev = inj.injectCluster(arr, 4, 2, 1.0);
    const std::string s = ev.describe();
    EXPECT_NE(s.find("cluster"), std::string::npos);
    EXPECT_NE(s.find("4x2"), std::string::npos);
    EXPECT_NE(s.find("soft"), std::string::npos);
}

} // namespace
} // namespace tdc
