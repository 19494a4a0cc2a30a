#include <gtest/gtest.h>

#include <set>

#include "array/fault.hh"
#include "changed_cells.hh"

namespace tdc
{
namespace
{

TEST(FaultInjector, SingleBitFlipsExactlyOneCell)
{
    Rng rng(80);
    FaultInjector inj(rng);
    MemoryArray arr(16, 16);
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(arr, FaultModel::singleBit());
    EXPECT_EQ(changedCells(before, arr).size(), 1u);
    EXPECT_EQ(ev.colHi, ev.colLo);
    EXPECT_EQ(ev.rowHi, ev.rowLo);
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
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(
        arr, {.shape = FaultShape::kRowBurst, .width = 12, .rowLo = 5});
    EXPECT_EQ(changedCells(before, arr).size(), 12u);
    EXPECT_EQ(ev.colHi - ev.colLo + 1, 12u);
    EXPECT_EQ(ev.rowHi, ev.rowLo);
    const BitVector row = arr.readRow(5);
    EXPECT_EQ(row.popcount(), 12u);
    EXPECT_EQ(row.slice(ev.colLo, 12).popcount(), 12u);
}

TEST(FaultInjector, RowBurstAtFixedOffset)
{
    Rng rng(82);
    FaultInjector inj(rng);
    MemoryArray arr(4, 32);
    const FaultEvent ev = inj.inject(arr, {.shape = FaultShape::kRowBurst,
                                           .width = 4,
                                           .rowLo = 0,
                                           .colLo = 10});
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
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(
        arr, {.shape = FaultShape::kColumnBurst, .height = 20, .colLo = 3});
    EXPECT_EQ(changedCells(before, arr).size(), 20u);
    EXPECT_EQ(ev.rowHi - ev.rowLo + 1, 20u);
    EXPECT_EQ(ev.colHi, ev.colLo);
    EXPECT_EQ(arr.readRow(ev.rowLo).popcount(), 1u);
    for (size_t r = ev.rowLo; r <= ev.rowHi; ++r)
        EXPECT_TRUE(arr.readBit(r, 3));
}

TEST(FaultInjector, SolidClusterFlipsEveryCell)
{
    Rng rng(84);
    FaultInjector inj(rng);
    MemoryArray arr(64, 64);
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(arr, FaultModel::cluster(8, 8));
    EXPECT_EQ(changedCells(before, arr).size(), 64u);
    EXPECT_EQ(ev.colHi - ev.colLo + 1, 8u);
    EXPECT_EQ(ev.rowHi - ev.rowLo + 1, 8u);
    for (size_t r = ev.rowLo; r <= ev.rowHi; ++r)
        for (size_t c = ev.colLo; c <= ev.colHi; ++c)
            EXPECT_TRUE(arr.readBit(r, c));
}

TEST(FaultInjector, SparseClusterStaysInsideBoundingBox)
{
    Rng rng(85);
    FaultInjector inj(rng);
    MemoryArray arr(128, 128);
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(arr, FaultModel::cluster(16, 16, 0.4));
    const auto cells = changedCells(before, arr);
    EXPECT_GT(cells.size(), 0u);
    for (auto [r, c] : cells) {
        EXPECT_GE(r, ev.rowLo);
        EXPECT_LE(r, ev.rowHi);
        EXPECT_GE(c, ev.colLo);
        EXPECT_LE(c, ev.colHi);
    }
    // Every spanned row participates (footprint is exact).
    std::set<size_t> rows_hit;
    for (auto [r, c] : cells)
        rows_hit.insert(r);
    EXPECT_EQ(rows_hit.size(), 16u);
}

TEST(FaultInjector, FullRowAndColumn)
{
    Rng rng(86);
    FaultInjector inj(rng);
    MemoryArray arr(32, 48);
    inj.inject(arr, {.shape = FaultShape::kFullRow, .rowLo = 7});
    EXPECT_EQ(arr.readRow(7).popcount(), 48u);
    inj.inject(arr, {.shape = FaultShape::kFullColumn, .colLo = 11});
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
    const MemoryArray before = arr;
    inj.inject(arr, {.shape = FaultShape::kSingleBit,
                     .persistence = FaultPersistence::kStuckAt});
    const auto cells = changedCells(before, arr);
    ASSERT_EQ(cells.size(), 1u);
    auto [r, c] = cells[0];
    EXPECT_EQ(arr.stuckRows(),
              (std::vector<std::pair<size_t, size_t>>{{r, 1}}));
    const bool observed = arr.readBit(r, c);
    // Writing the complement must not change the observed value.
    arr.writeBit(r, c, !observed);
    EXPECT_EQ(arr.readBit(r, c), observed);
}

TEST(FaultInjector, OversizedFootprintsAreClippedToTheArray)
{
    // A 1x256 column on a 64-row array covers the whole column.
    Rng rng(90);
    FaultInjector inj(rng);
    MemoryArray arr(64, 32);
    const MemoryArray before = arr;
    const FaultEvent ev = inj.inject(arr, FaultModel::cluster(1, 256));
    EXPECT_EQ(ev.colHi, ev.colLo);
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 63u);
    const auto cells = changedCells(before, arr);
    ASSERT_EQ(cells.size(), 64u);
    for (auto [r, c] : cells)
        EXPECT_EQ(c, ev.colLo);

    // Every shape that reads width or height clips the same way: on a
    // 4x6 array, each box below is the whole array along the
    // oversized axis.
    const struct
    {
        FaultModel model;
        size_t height, width;
    } clipped[] = {
        {FaultModel::rowBurst(500), 1, 6},
        {FaultModel::columnBurst(500), 4, 1},
        {FaultModel::cluster(500, 500, 0.5), 4, 6},
        {FaultModel::rowHammer(500), 4, 6},
        {FaultModel::senseAmp(500), 4, 2},
    };
    for (const auto &[m, height, width] : clipped) {
        MemoryArray small(4, 6);
        const FaultEvent e = inj.inject(small, m);
        EXPECT_EQ(e.rowHi - e.rowLo + 1, height) << m.spec();
        EXPECT_EQ(e.colHi - e.colLo + 1, width) << m.spec();
        EXPECT_LE(e.rowHi, 3u) << m.spec();
        EXPECT_LE(e.colHi, 5u) << m.spec();
    }
}

TEST(FaultInjector, OutOfRangeAnchorsWrapModuloTheirRange)
{
    Rng rng(91);
    FaultInjector inj(rng);
    MemoryArray arr(8, 16);
    // A 4-wide burst fits at columns 0..12: 13 positions, so column
    // 20 wraps to 7; row 11 of 8 wraps to 3.
    const FaultEvent ev = inj.inject(arr, {.shape = FaultShape::kRowBurst,
                                           .width = 4,
                                           .rowLo = 11,
                                           .colLo = 20});
    EXPECT_EQ(ev.rowLo, 3u);
    EXPECT_EQ(ev.colLo, 7u);
    EXPECT_EQ(ev.colHi, 10u);
    EXPECT_EQ(arr.readRow(3).popcount(), 4u);
}

} // namespace
} // namespace tdc
