#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "array/interleave.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

TEST(InterleaveMap, Geometry)
{
    InterleaveMap map(72, 4);
    EXPECT_EQ(map.wordBits(), 72u);
    EXPECT_EQ(map.degree(), 4u);
    EXPECT_EQ(map.rowBits(), 288u);
}

TEST(InterleaveMap, DegreeOneIsIdentity)
{
    InterleaveMap map(16, 1);
    for (size_t b = 0; b < 16; ++b)
        EXPECT_EQ(map.physicalColumn(0, b), b);
}

TEST(InterleaveMap, ColumnsPartitionAcrossSlots)
{
    InterleaveMap map(8, 4);
    std::vector<int> owner(map.rowBits(), -1);
    for (size_t slot = 0; slot < 4; ++slot) {
        for (size_t b = 0; b < 8; ++b) {
            const size_t col = map.physicalColumn(slot, b);
            ASSERT_LT(col, map.rowBits());
            ASSERT_EQ(owner[col], -1) << "column claimed twice";
            owner[col] = int(slot);
            EXPECT_EQ(col, b * map.degree() + slot);
        }
    }
    for (int o : owner)
        EXPECT_NE(o, -1);
}

TEST(InterleaveMap, AdjacentColumnsBelongToDifferentWords)
{
    // The defining property of bit interleaving (Figure 2(a)): a
    // physically contiguous burst of width <= degree touches each
    // word at most once.
    InterleaveMap map(64, 4);
    std::vector<size_t> owner(map.rowBits());
    for (size_t slot = 0; slot < map.degree(); ++slot)
        for (size_t b = 0; b < map.wordBits(); ++b)
            owner[map.physicalColumn(slot, b)] = slot;
    for (size_t col = 0; col + 1 < map.rowBits(); ++col)
        EXPECT_NE(owner[col], owner[col + 1]);
}

TEST(InterleaveMap, ContiguousBurstFootprintPerWord)
{
    // A burst of degree*w contiguous columns touches exactly w bits
    // in each word, and those bits are contiguous within the word.
    InterleaveMap map(64, 4);
    const size_t width = 4 * 8; // 32 physical columns
    const size_t start = 20;
    std::vector<std::vector<size_t>> touched(4);
    for (size_t slot = 0; slot < 4; ++slot) {
        for (size_t b = 0; b < map.wordBits(); ++b) {
            const size_t col = map.physicalColumn(slot, b);
            if (col >= start && col < start + width)
                touched[slot].push_back(b);
        }
    }
    for (size_t slot = 0; slot < 4; ++slot) {
        ASSERT_EQ(touched[slot].size(), 8u);
        for (size_t i = 1; i < touched[slot].size(); ++i)
            EXPECT_EQ(touched[slot][i], touched[slot][i - 1] + 1);
    }
}

TEST(InterleaveMap, ExtractDepositRoundTrip)
{
    Rng rng(70);
    InterleaveMap map(72, 4);
    BitVector row(map.rowBits());
    std::vector<BitVector> words;
    for (size_t slot = 0; slot < 4; ++slot) {
        BitVector w(72);
        for (size_t b = 0; b < 72; ++b)
            w.set(b, rng.nextBool());
        map.depositWord(row, slot, w);
        words.push_back(w);
    }
    for (size_t slot = 0; slot < 4; ++slot)
        EXPECT_EQ(map.extractWord(row, slot), words[slot]);
}

TEST(InterleaveMap, DepositDoesNotDisturbOtherSlots)
{
    InterleaveMap map(8, 2);
    BitVector row(16);
    BitVector a(8, 0xFF);
    map.depositWord(row, 0, a);
    const BitVector before = map.extractWord(row, 1);
    map.depositWord(row, 0, BitVector(8, 0x00));
    EXPECT_EQ(map.extractWord(row, 1), before);
}

TEST(InterleaveMap, ContiguousCoverageArithmetic)
{
    // A 32-column row burst leaves 32 / degree bits in each word:
    // 8 under EDC8 + 4-way interleave (the paper's L1 configuration)
    // and 16 under EDC16 + 2-way (the L2 configuration), each within
    // what the per-word EDC detects.
    for (const auto &[word_bits, degree] :
         {std::pair<size_t, size_t>{72, 4}, {272, 2}}) {
        const InterleaveMap map(word_bits, degree);
        BitVector row(map.rowBits());
        for (size_t col = 40; col < 40 + 32; ++col)
            row.set(col, true);
        for (size_t slot = 0; slot < degree; ++slot)
            EXPECT_EQ(map.extractWord(row, slot).popcount(), 32 / degree)
                << word_bits << "/i" << degree;
    }
}

} // namespace
} // namespace tdc
