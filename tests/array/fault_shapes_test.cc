/**
 * @file
 * The device-derived DRAM fault shapes: chip kill, row hammer and
 * sense-amp failure. Parse/spec round-trips (with the chip-kill spec()
 * special case: colLo is a chip selector, not a cell anchor), malformed
 * specs quoting the offending token, and exact injector footprints on
 * a symbol-annotated array.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "array/fault.hh"
#include "array/memory_array.hh"
#include "common/rng.hh"
#include "changed_cells.hh"

namespace tdc
{
namespace
{

void
expectFaultError(const std::string &spec)
{
    try {
        parseFaultModel(spec);
        FAIL() << spec << " parsed";
    } catch (const std::invalid_argument &e) {
        // The offending spec must be quoted for actionable driver errors.
        EXPECT_NE(std::string(e.what()).find("\"" + spec + "\""),
                  std::string::npos)
            << spec << " -> " << e.what();
    }
}

/** 8 rows x 4 chips of 4-bit symbols. */
MemoryArray
symbolArray()
{
    MemoryArray arr(8, 16);
    arr.setSymbolBits(4);
    return arr;
}

TEST(DramFaultParse, ChipKillRoundTrips)
{
    const FaultModel any = parseFaultModel("chip:any");
    EXPECT_EQ(any.shape, FaultShape::kChipKill);
    EXPECT_EQ(any.colLo, -1);
    EXPECT_EQ(any.spec(), "chip:any");

    const FaultModel zero = parseFaultModel("chip:0");
    EXPECT_EQ(zero.colLo, 0); // chip 0 is a legal selector
    EXPECT_EQ(zero.spec(), "chip:0");

    const FaultModel three = parseFaultModel("chip:3");
    EXPECT_EQ(three.colLo, 3);
    EXPECT_EQ(parseFaultModel(three.spec()).spec(), "chip:3");
}

TEST(DramFaultParse, HardChipKillSpecSkipsAnchorSuffix)
{
    FaultModel m = FaultModel::chipKill(2);
    m.persistence = FaultPersistence::kStuckAt;
    // colLo = 2 is the chip selector; the generic "/@row,col" anchor
    // suffix must not leak into the spec, only "/hard".
    EXPECT_EQ(m.spec(), "chip:2/hard");
}

TEST(DramFaultParse, RowHammerRoundTrips)
{
    const FaultModel solid = parseFaultModel("hammer:3");
    EXPECT_EQ(solid.shape, FaultShape::kRowHammer);
    EXPECT_EQ(solid.height, 3u);
    EXPECT_EQ(solid.density, 1.0);
    EXPECT_EQ(solid.spec(), "hammer:3");

    const FaultModel sparse = parseFaultModel("hammer:4@0.5");
    EXPECT_EQ(sparse.height, 4u);
    EXPECT_EQ(sparse.density, 0.5);
    EXPECT_EQ(sparse.spec(), "hammer:4@0.5");
    EXPECT_EQ(parseFaultModel(sparse.spec()).spec(), sparse.spec());
}

TEST(DramFaultParse, SenseAmpRoundTrips)
{
    const FaultModel m = parseFaultModel("senseamp:16");
    EXPECT_EQ(m.shape, FaultShape::kSenseAmp);
    EXPECT_EQ(m.height, 16u);
    EXPECT_EQ(m.spec(), "senseamp:16");
    EXPECT_EQ(parseFaultModel(m.spec()).spec(), m.spec());
}

TEST(DramFaultParse, MalformedSpecsQuoteTheToken)
{
    expectFaultError("chip:");
    expectFaultError("chip:x");
    expectFaultError("chip:1.5");
    expectFaultError("chip:70000");
    expectFaultError("hammer:");
    expectFaultError("hammer:0");
    expectFaultError("hammer:4@0");
    expectFaultError("hammer:4@1.5");
    expectFaultError("senseamp:0");
    expectFaultError("senseamp:");
}

TEST(DramFaultParse, DescribeLabels)
{
    EXPECT_EQ(FaultModel::chipKill().describe(), "chip kill");
    EXPECT_EQ(FaultModel::chipKill(3).describe(), "chip 3 kill");
    EXPECT_EQ(FaultModel::rowHammer(4, 0.5).describe(),
              "hammer 4 rows @50%");
    EXPECT_EQ(FaultModel::rowHammer(2).describe(), "hammer 2 rows");
    EXPECT_EQ(FaultModel::senseAmp(16).describe(), "sense-amp 2x16");
}

TEST(DramFaultInject, ChipKillCoversExactlyOneSymbolGroup)
{
    MemoryArray arr = symbolArray();
    const MemoryArray before = arr;
    Rng rng(1);
    FaultInjector injector(rng);
    const FaultEvent ev = injector.inject(arr, FaultModel::chipKill(2));
    EXPECT_EQ(changedCells(before, arr).size(), 8u * 4u);
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 7u);
    EXPECT_EQ(ev.colLo, 8u);  // chip 2 -> columns 8..11
    EXPECT_EQ(ev.colHi, 11u);
    for (size_t r = 0; r < 8; ++r)
        for (size_t c = 0; c < 16; ++c)
            EXPECT_EQ(arr.readBit(r, c), c >= 8 && c < 12)
                << r << "," << c;
}

TEST(DramFaultInject, RandomChipKillAlignsToSymbolBoundary)
{
    Rng rng(7);
    FaultInjector injector(rng);
    for (int i = 0; i < 10; ++i) {
        MemoryArray arr = symbolArray();
        const MemoryArray before = arr;
        const FaultEvent ev = injector.inject(arr, FaultModel::chipKill());
        EXPECT_EQ(ev.colLo % 4, 0u);
        EXPECT_EQ(ev.colHi, ev.colLo + 3);
        EXPECT_EQ(changedCells(before, arr).size(), 8u * 4u);
    }
}

TEST(DramFaultInject, HardChipKillInstallsStuckAts)
{
    MemoryArray arr = symbolArray();
    Rng rng(3);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::chipKill(1);
    m.persistence = FaultPersistence::kStuckAt;
    injector.inject(arr, m);
    std::vector<std::pair<size_t, size_t>> stuck;
    for (size_t r = 0; r < 8; ++r)
        stuck.push_back({r, 4});
    EXPECT_EQ(arr.stuckRows(), stuck);
    EXPECT_TRUE(arr.isStuck(0, 4));
    EXPECT_TRUE(arr.isStuck(7, 7));
    EXPECT_FALSE(arr.isStuck(0, 3));
}

TEST(DramFaultInject, SolidHammerFillsTheBand)
{
    MemoryArray arr = symbolArray();
    const MemoryArray before = arr;
    Rng rng(5);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::rowHammer(2);
    m.rowLo = 3;
    const FaultEvent ev = injector.inject(arr, m);
    EXPECT_EQ(ev.rowLo, 3u);
    EXPECT_EQ(ev.rowHi, 4u);
    EXPECT_EQ(changedCells(before, arr).size(), 2u * 16u);
}

TEST(DramFaultInject, SparseHammerStaysInBandAndIsNonEmpty)
{
    Rng rng(11);
    FaultInjector injector(rng);
    for (int i = 0; i < 20; ++i) {
        MemoryArray arr = symbolArray();
        const MemoryArray before = arr;
        FaultModel m = FaultModel::rowHammer(3, 0.05);
        const FaultEvent ev = injector.inject(arr, m);
        // The injector re-rolls an empty draw: every event observable.
        const auto cells = changedCells(before, arr);
        EXPECT_FALSE(cells.empty());
        for (const auto &[r, c] : cells) {
            EXPECT_GE(r, ev.rowLo);
            EXPECT_LE(r, ev.rowHi);
            EXPECT_LT(c, 16u);
        }
        EXPECT_LE(ev.rowHi - ev.rowLo, 2u);
    }
}

TEST(DramFaultInject, HammerBandClampsToArrayHeight)
{
    MemoryArray arr(4, 8);
    const MemoryArray before = arr;
    Rng rng(2);
    FaultInjector injector(rng);
    const FaultEvent ev = injector.inject(arr, FaultModel::rowHammer(64));
    EXPECT_EQ(ev.rowLo, 0u);
    EXPECT_EQ(ev.rowHi, 3u);
    EXPECT_EQ(changedCells(before, arr).size(), 4u * 8u);
}

TEST(DramFaultInject, SenseAmpIsTwoAdjacentColumns)
{
    MemoryArray arr = symbolArray();
    const MemoryArray before = arr;
    Rng rng(6);
    FaultInjector injector(rng);
    FaultModel m = FaultModel::senseAmp(4);
    m.rowLo = 2;
    m.colLo = 5;
    const FaultEvent ev = injector.inject(arr, m);
    EXPECT_EQ(ev.rowLo, 2u);
    EXPECT_EQ(ev.rowHi, 5u);
    EXPECT_EQ(ev.colLo, 5u);
    EXPECT_EQ(ev.colHi, 6u);
    EXPECT_EQ(changedCells(before, arr).size(), 4u * 2u);
}

} // namespace
} // namespace tdc
