/**
 * @file
 * DramArray geometry and symbol access, the per-chip/column/bank
 * stuck-fault summaries that drive spare-unit repair, and the ChipSecded
 * in-DRAM ECC exhaustive single/double behavior.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dram/chip_iecc.hh"
#include "dram/dram_array.hh"

namespace tdc
{
namespace
{

DramGeometry
smallGeometry()
{
    DramGeometry g;
    g.symbolBits = 4;
    g.chips = 5;
    g.banks = 2;
    g.rowsPerBank = 4;
    return g;
}

TEST(DramArray, GeometryAndUnitMaps)
{
    const DramGeometry g = smallGeometry();
    DramArray dram(g);
    EXPECT_EQ(dram.cells().rows(), 8u);
    EXPECT_EQ(dram.cells().cols(), 20u);
    EXPECT_EQ(dram.cells().symbolBits(), 4u);
    EXPECT_EQ(dram.chipOfCol(0), 0u);
    EXPECT_EQ(dram.chipOfCol(3), 0u);
    EXPECT_EQ(dram.chipOfCol(4), 1u);
    EXPECT_EQ(dram.chipOfCol(19), 4u);
}

TEST(DramArray, CtorValidatesGeometry)
{
    DramGeometry g = smallGeometry();
    g.symbolBits = 0;
    EXPECT_THROW(DramArray a(g), std::invalid_argument);
    g = smallGeometry();
    g.chips = 0;
    EXPECT_THROW(DramArray a(g), std::invalid_argument);
    g = smallGeometry();
    g.rowsPerBank = 0;
    EXPECT_THROW(DramArray a(g), std::invalid_argument);
}

TEST(DramArray, SymbolRoundTripIsLsbFirstPerChip)
{
    DramArray dram(smallGeometry());
    dram.writeSymbol(2, 1, 0x9u); // bits 0 and 3 of chip 1
    EXPECT_EQ(dram.readSymbol(2, 1), 0x9u);
    EXPECT_TRUE(dram.cells().readBit(2, 4));  // chip 1, bit 0 -> col 4
    EXPECT_FALSE(dram.cells().readBit(2, 5));
    EXPECT_FALSE(dram.cells().readBit(2, 6));
    EXPECT_TRUE(dram.cells().readBit(2, 7));  // bit 3 -> col 7
    EXPECT_EQ(dram.readSymbol(2, 0), 0u); // neighbors untouched
    EXPECT_EQ(dram.readSymbol(2, 2), 0u);
}

TEST(DramArray, CodewordRoundTrip)
{
    DramArray dram(smallGeometry());
    const std::vector<uint32_t> word = {0x1, 0xF, 0x0, 0xA, 0x5};
    dram.writeCodeword(3, word);
    EXPECT_EQ(dram.readCodeword(3), word);
    // Other rows stay clear.
    EXPECT_EQ(dram.readCodeword(2), std::vector<uint32_t>(5, 0));
}

TEST(DramArray, StuckSummariesGroupByRepairUnit)
{
    DramArray dram(smallGeometry());
    // Two stuck cells in chip 1 (cols 4..7), one in chip 3 (cols 12..15).
    dram.cells().addStuckAt(0, 5, true);
    dram.cells().addStuckAt(6, 6, false);
    dram.cells().addStuckAt(1, 13, true);

    const auto chips = dram.stuckChips();
    ASSERT_EQ(chips.size(), 2u);
    EXPECT_EQ(chips[0], std::make_pair(size_t(1), size_t(2)));
    EXPECT_EQ(chips[1], std::make_pair(size_t(3), size_t(1)));

    const auto cols = dram.stuckColumns();
    ASSERT_EQ(cols.size(), 3u);
    EXPECT_EQ(cols[0], std::make_pair(size_t(5), size_t(1)));
    EXPECT_EQ(cols[1], std::make_pair(size_t(6), size_t(1)));
    EXPECT_EQ(cols[2], std::make_pair(size_t(13), size_t(1)));
}

TEST(DramArray, RepairChipClearsOnlyThatGroup)
{
    DramArray dram(smallGeometry());
    dram.cells().addStuckAt(0, 5, true);
    dram.cells().addStuckAt(6, 6, false);
    dram.cells().addStuckAt(1, 13, true);
    dram.repairChip(1);
    EXPECT_FALSE(dram.cells().isStuck(0, 5));
    EXPECT_FALSE(dram.cells().isStuck(6, 6));
    EXPECT_TRUE(dram.cells().isStuck(1, 13));
    ASSERT_EQ(dram.stuckChips().size(), 1u);
    EXPECT_EQ(dram.stuckChips()[0].first, 3u);
}

TEST(DramArray, RepairColumnClearsOnlyThatColumn)
{
    DramArray dram(smallGeometry());
    dram.cells().addStuckAt(0, 5, true);
    dram.cells().addStuckAt(6, 5, false);
    dram.cells().addStuckAt(2, 6, true);
    dram.repairColumn(5);
    EXPECT_EQ(dram.cells().stuckRows(),
              (std::vector<std::pair<size_t, size_t>>{{2, 1}}));
    EXPECT_TRUE(dram.cells().isStuck(2, 6));
}

TEST(ChipIecc, CheckWidthsMatchExtendedHamming)
{
    EXPECT_EQ(ChipSecded(4).checkBits(), 4u); // 3 hamming + parity
    EXPECT_EQ(ChipSecded(8).checkBits(), 5u); // 4 hamming + parity
    EXPECT_EQ(ChipSecded(16).checkBits(), 6u);
    EXPECT_THROW(ChipSecded(1), std::invalid_argument);
    EXPECT_THROW(ChipSecded(17), std::invalid_argument);
}

TEST(ChipIecc, CleanBurstDecodesClean)
{
    for (unsigned b : {4u, 8u}) {
        const ChipSecded iecc(b);
        for (uint32_t sym = 0; sym < (1u << b); ++sym) {
            uint32_t s = sym;
            EXPECT_EQ(iecc.decode(s, iecc.encode(sym)), DecodeStatus::kClean);
            EXPECT_EQ(s, sym);
        }
    }
}

TEST(ChipIecc, ExhaustiveSingleDataBitCorrection)
{
    for (unsigned b : {4u, 8u}) {
        const ChipSecded iecc(b);
        for (uint32_t sym = 0; sym < (1u << b); ++sym) {
            const uint32_t check = iecc.encode(sym);
            for (unsigned j = 0; j < b; ++j) {
                uint32_t s = sym ^ (1u << j);
                ASSERT_EQ(iecc.decode(s, check), DecodeStatus::kCorrected)
                    << "b=" << b << " sym=" << sym << " bit=" << j;
                ASSERT_EQ(s, sym);
            }
        }
    }
}

TEST(ChipIecc, ExhaustiveDoubleDataBitDetection)
{
    for (unsigned b : {4u, 8u}) {
        const ChipSecded iecc(b);
        for (uint32_t sym = 0; sym < (1u << b); ++sym) {
            const uint32_t check = iecc.encode(sym);
            for (unsigned i = 0; i < b; ++i) {
                for (unsigned j = i + 1; j < b; ++j) {
                    uint32_t s = sym ^ (1u << i) ^ (1u << j);
                    ASSERT_EQ(iecc.decode(s, check),
                              DecodeStatus::kDetectedUncorrectable)
                        << "b=" << b << " sym=" << sym << " bits=" << i
                        << "," << j;
                }
            }
        }
    }
}

} // namespace
} // namespace tdc
