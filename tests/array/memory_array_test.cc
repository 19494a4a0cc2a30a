#include <gtest/gtest.h>

#include "array/memory_array.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

TEST(MemoryArray, RowRoundTrip)
{
    MemoryArray arr(8, 64);
    BitVector row(64, 0xDEADBEEFCAFEF00Dull);
    arr.writeRow(3, row);
    EXPECT_EQ(arr.readRow(3), row);
    EXPECT_TRUE(arr.readRow(2).none());
}

TEST(MemoryArray, BitAccess)
{
    MemoryArray arr(4, 16);
    arr.writeBit(1, 7, true);
    EXPECT_TRUE(arr.readBit(1, 7));
    EXPECT_FALSE(arr.readBit(1, 6));
    arr.flipBit(1, 7);
    EXPECT_FALSE(arr.readBit(1, 7));
}

TEST(MemoryArray, FlipModelsSoftError)
{
    MemoryArray arr(2, 8);
    arr.writeRow(0, BitVector(8, 0b1010));
    arr.flipBit(0, 0);
    EXPECT_EQ(arr.readRow(0).toUint64(), 0b1011u);
}

TEST(MemoryArray, StuckAtForcesReadValue)
{
    MemoryArray arr(2, 8);
    arr.writeRow(0, BitVector(8, 0x00));
    arr.addStuckAt(0, 3, true);
    EXPECT_TRUE(arr.readBit(0, 3));
    EXPECT_TRUE(arr.readRow(0).get(3));
    // Writing cannot change a stuck cell's observed value.
    arr.writeRow(0, BitVector(8, 0x00));
    EXPECT_TRUE(arr.readBit(0, 3));
}

TEST(MemoryArray, StuckAtZeroMasksStoredOne)
{
    MemoryArray arr(2, 8);
    arr.writeRow(1, BitVector(8, 0xFF));
    arr.addStuckAt(1, 0, false);
    EXPECT_FALSE(arr.readRow(1).get(0));
    EXPECT_TRUE(arr.readRow(1).get(1));
}

TEST(MemoryArray, ClearFaultRestoresStoredState)
{
    MemoryArray arr(1, 4);
    arr.writeRow(0, BitVector(4, 0b0110));
    arr.addStuckAt(0, 1, false);
    EXPECT_FALSE(arr.readBit(0, 1));
    arr.clearFault(0, 1);
    EXPECT_TRUE(arr.readBit(0, 1));
    EXPECT_EQ(arr.faultCount(), 0u);
}

TEST(MemoryArray, AccessCounters)
{
    MemoryArray arr(4, 8);
    arr.readRow(0);
    arr.readRow(1);
    arr.writeRow(2, BitVector(8));
    EXPECT_EQ(arr.readCount(), 2u);
    EXPECT_EQ(arr.writeCount(), 1u);
}

TEST(MemoryArray, IsStuckQuery)
{
    MemoryArray arr(2, 2);
    EXPECT_FALSE(arr.isStuck(0, 0));
    arr.addStuckAt(0, 0, true);
    EXPECT_TRUE(arr.isStuck(0, 0));
    EXPECT_FALSE(arr.isStuck(0, 1));
}

/** One mutator call and whether it changes the array's state. */
struct EpochCase
{
    const char *name;
    void (*mutate)(MemoryArray &);
    bool changesState;
};

/**
 * The fixture every case starts from: row 0 holds 0b0110, row 1 has
 * cell 2 stuck at 1, row 2 is all zero and fault-free.
 */
MemoryArray
epochFixture()
{
    MemoryArray arr(3, 8);
    arr.writeRow(0, BitVector(8, 0b0110));
    arr.addStuckAt(1, 2, true);
    return arr;
}

const EpochCase kEpochCases[] = {
    {"writeRow same row",
     [](MemoryArray &a) { a.writeRow(0, BitVector(8, 0b0110)); }, false},
    {"writeRow different row",
     [](MemoryArray &a) { a.writeRow(0, BitVector(8, 0b0111)); }, true},
    {"writeRow under a stuck cell",
     [](MemoryArray &a) { a.writeRow(1, BitVector(8, 0b0100)); }, true},
    {"xorRow zero delta", [](MemoryArray &a) { a.xorRow(0, BitVector(8)); },
     false},
    {"xorRow non-zero delta",
     [](MemoryArray &a) { a.xorRow(0, BitVector(8, 0b1000)); }, true},
    {"writeBit stored value", [](MemoryArray &a) { a.writeBit(0, 1, true); },
     false},
    {"writeBit new value", [](MemoryArray &a) { a.writeBit(0, 0, true); },
     true},
    {"flipBit", [](MemoryArray &a) { a.flipBit(2, 5); }, true},
    {"addStuckAt new cell", [](MemoryArray &a) { a.addStuckAt(2, 0, false); },
     true},
    {"addStuckAt same cell, same value",
     [](MemoryArray &a) { a.addStuckAt(1, 2, true); }, false},
    {"addStuckAt same cell, new value",
     [](MemoryArray &a) { a.addStuckAt(1, 2, false); }, true},
    {"clearFault on a stuck cell", [](MemoryArray &a) { a.clearFault(1, 2); },
     true},
    {"clearFault on a clean cell", [](MemoryArray &a) { a.clearFault(2, 2); },
     false},
    {"clearRowFaults on a faulty row",
     [](MemoryArray &a) { a.clearRowFaults(1); }, true},
    {"clearRowFaults on a clean row",
     [](MemoryArray &a) { a.clearRowFaults(2); }, false},
};

TEST(MemoryArray, VersionMovesExactlyWhenStateChanges)
{
    for (const EpochCase &c : kEpochCases) {
        MemoryArray arr = epochFixture();
        const uint64_t before = arr.version();
        c.mutate(arr);
        EXPECT_EQ(arr.version() != before, c.changesState) << c.name;
    }
}

TEST(MemoryArray, ReadsNeverMoveTheVersion)
{
    MemoryArray arr = epochFixture();
    const uint64_t before = arr.version();
    BitVector scratch;
    arr.readRow(1);
    arr.readRowInto(0, scratch);
    arr.copyRowInto(1, scratch);
    arr.viewRow(2);
    arr.readBit(1, 2);
    arr.stuckRows();
    EXPECT_EQ(arr.version(), before);
}

TEST(MemoryArray, FlipTwiceMovesTheVersionButRestoresTheContent)
{
    MemoryArray arr = epochFixture();
    const uint64_t before = arr.version();
    arr.flipBit(0, 3);
    arr.flipBit(0, 3);
    EXPECT_NE(arr.version(), before);
    EXPECT_EQ(arr.readRow(0).toUint64(), 0b0110u);
}

} // namespace
} // namespace tdc
