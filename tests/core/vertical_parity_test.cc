#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/vertical_parity.hh"

namespace tdc
{
namespace
{

TEST(VerticalParity, Geometry)
{
    VerticalParity vp(256, 288, 32);
    EXPECT_EQ(vp.groups(), 32u);
    EXPECT_EQ(vp.rowBits(), 288u);
    EXPECT_DOUBLE_EQ(vp.storageOverhead(), 32.0 / 256.0); // 12.5%
}

TEST(VerticalParity, GroupAssignmentIsRowModV)
{
    VerticalParity vp(256, 64, 32);
    EXPECT_EQ(vp.groupOf(0), 0u);
    EXPECT_EQ(vp.groupOf(31), 31u);
    EXPECT_EQ(vp.groupOf(32), 0u);
    EXPECT_EQ(vp.groupOf(255), 31u);
}

TEST(VerticalParity, StartsClean)
{
    VerticalParity vp(64, 32, 8);
    for (size_t g = 0; g < 8; ++g)
        EXPECT_TRUE(vp.readGroup(g).none());
}

TEST(VerticalParity, DeltaUpdateMatchesRecomputation)
{
    // Incremental old^new maintenance must equal a from-scratch XOR
    // of all covered rows: the fundamental invariant of the vertical
    // dimension.
    Rng rng(100);
    const size_t rows = 64, bits = 96, groups = 8;
    VerticalParity vp(rows, bits, groups);
    std::vector<BitVector> shadow(rows, BitVector(bits));

    for (int step = 0; step < 500; ++step) {
        const size_t r = rng.nextBelow(rows);
        BitVector next(bits);
        for (size_t b = 0; b < bits; ++b)
            next.set(b, rng.nextBool());
        vp.applyDelta(r, shadow[r] ^ next);
        shadow[r] = next;
    }

    for (size_t g = 0; g < groups; ++g) {
        BitVector expect(bits);
        for (size_t r = g; r < rows; r += groups)
            expect ^= shadow[r];
        EXPECT_EQ(vp.readGroup(g), expect) << "group " << g;
    }
}

TEST(VerticalParity, DoubleDeltaCancels)
{
    VerticalParity vp(16, 32, 4);
    BitVector delta(32, 0xA5A5);
    vp.applyDelta(5, delta);
    EXPECT_TRUE(vp.readGroup(1).any());
    vp.applyDelta(5, delta);
    EXPECT_TRUE(vp.readGroup(1).none());
}

TEST(VerticalParity, UpdatesOnlyOwnGroup)
{
    VerticalParity vp(16, 8, 4);
    vp.applyDelta(6, BitVector(8, 0xFF)); // group 2
    for (size_t g = 0; g < 4; ++g) {
        if (g == 2)
            EXPECT_TRUE(vp.readGroup(g).any());
        else
            EXPECT_TRUE(vp.readGroup(g).none());
    }
}

TEST(VerticalParity, EveryWriteReachesItsGroup)
{
    // Each delta lands in its row's group and only there; a second
    // write to the same group folds into the first.
    VerticalParity vp(16, 8, 4);
    vp.applyDelta(0, BitVector(8, 0x01));
    vp.applyDelta(1, BitVector(8, 0x01));
    vp.applyDelta(4, BitVector(8, 0x06));
    EXPECT_EQ(vp.readGroup(0), BitVector(8, 0x07));
    EXPECT_EQ(vp.readGroup(1), BitVector(8, 0x01));
    EXPECT_TRUE(vp.readGroup(2).none());
    EXPECT_TRUE(vp.readGroup(3).none());
    vp.applyDelta(8, BitVector(8, 0x07));
    EXPECT_TRUE(vp.readGroup(0).none());
}

} // namespace
} // namespace tdc
