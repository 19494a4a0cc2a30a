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

} // namespace
} // namespace tdc
