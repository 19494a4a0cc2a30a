#include <gtest/gtest.h>

#include "common/bit_vector.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.none());
}

TEST(BitVector, ConstructedCleared)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ValueConstructor)
{
    BitVector v(8, 0b10110101);
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(1));
    EXPECT_TRUE(v.get(2));
    EXPECT_EQ(v.toUint64(), 0b10110101u);
}

TEST(BitVector, ValueConstructorTruncatesAboveLength)
{
    BitVector v(4, 0xFF);
    EXPECT_EQ(v.toUint64(), 0xFu);
    EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, SetGetFlip)
{
    BitVector v(100);
    v.set(63, true);
    v.set(64, true);
    v.set(99, true);
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(99));
    EXPECT_EQ(v.popcount(), 3u);
    v.flip(64);
    EXPECT_FALSE(v.get(64));
    v.flip(0);
    EXPECT_TRUE(v.get(0));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, XorAndOr)
{
    BitVector a(8, 0b1100);
    BitVector b(8, 0b1010);
    EXPECT_EQ((a ^ b).toUint64(), 0b0110u);
    a |= b;
    EXPECT_EQ(a.toUint64(), 0b1110u);
}

TEST(BitVector, EqualityConsidersLength)
{
    BitVector a(8, 3);
    BitVector b(9, 3);
    BitVector c(8, 3);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, c);
}

TEST(BitVector, SliceWithinOneWord)
{
    BitVector v(32, 0b11011001);
    BitVector s = v.slice(3, 5);
    EXPECT_EQ(s.size(), 5u);
    EXPECT_EQ(s.toUint64(), 0b11011u);
}

TEST(BitVector, SliceAcrossWordBoundary)
{
    BitVector v(128);
    for (size_t i = 60; i < 70; ++i)
        v.set(i, true);
    BitVector s = v.slice(58, 16);
    EXPECT_EQ(s.size(), 16u);
    EXPECT_EQ(s.popcount(), 10u);
    EXPECT_FALSE(s.get(0));
    EXPECT_FALSE(s.get(1));
    EXPECT_TRUE(s.get(2));
    EXPECT_TRUE(s.get(11));
    EXPECT_FALSE(s.get(12));
}

TEST(BitVector, SliceRoundTripRandom)
{
    Rng rng(42);
    BitVector v(333);
    for (size_t i = 0; i < v.size(); ++i)
        v.set(i, rng.nextBool());
    for (int trial = 0; trial < 50; ++trial) {
        const size_t pos = rng.nextBelow(300);
        const size_t len = 1 + rng.nextBelow(33);
        BitVector s = v.slice(pos, len);
        for (size_t i = 0; i < len; ++i)
            EXPECT_EQ(s.get(i), v.get(pos + i));
    }
}

TEST(BitVector, SetSlice)
{
    BitVector v(64);
    BitVector patch(8, 0xA5);
    v.setSlice(30, patch);
    EXPECT_EQ(v.slice(30, 8).toUint64(), 0xA5u);
    EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, AppendAndPushBack)
{
    BitVector v(4, 0b1010);
    BitVector w(4, 0b0110);
    for (size_t i = 0; i < w.size(); ++i)
        v.pushBack(w.get(i));
    EXPECT_EQ(v.size(), 8u);
    EXPECT_EQ(v.toUint64(), 0b01101010u);
    v.pushBack(true);
    EXPECT_EQ(v.size(), 9u);
    EXPECT_TRUE(v.get(8));
}

TEST(BitVector, Parity)
{
    BitVector v(100);
    EXPECT_FALSE(v.parity());
    v.set(10, true);
    EXPECT_TRUE(v.parity());
    v.set(90, true);
    EXPECT_FALSE(v.parity());
}

TEST(BitVector, XorIsInvolution)
{
    Rng rng(7);
    BitVector a(257);
    BitVector b(257);
    for (size_t i = 0; i < a.size(); ++i) {
        a.set(i, rng.nextBool());
        b.set(i, rng.nextBool());
    }
    BitVector c = a ^ b;
    EXPECT_EQ(c ^ b, a);
    EXPECT_EQ(c ^ a, b);
}

} // namespace
} // namespace tdc
