#include <gtest/gtest.h>

#include <string>
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

/** A @p bits-long row whose 64-bit words are drawn from @p next(). */
template <typename Next>
BitVector
rowOf(size_t bits, Next next)
{
    BitVector row(bits);
    for (size_t w = 0; w < row.wordCount(); ++w)
        row.wordData()[w] = next();
    if (bits % 64 != 0)
        row.wordData()[row.wordCount() - 1] &=
            (uint64_t(1) << (bits % 64)) - 1;
    return row;
}

/** True iff the storage bits past v.size() are clear. */
bool
topBitsClear(const BitVector &v)
{
    return v.size() % 64 == 0 ||
           (v.wordData()[v.wordCount() - 1] >> (v.size() % 64)) == 0;
}

/**
 * Row contents that stress both kernels: empty, full, alternating,
 * half-word, edge-bit and nibble/byte fills, stride fills that alias
 * and do not alias the degree, single bits at the row's edges and
 * middle, and random rows.
 */
std::vector<BitVector>
rowPatterns(size_t bits, Rng &rng)
{
    std::vector<uint64_t> fills = {
        0,
        ~uint64_t(0),
        0xAAAAAAAAAAAAAAAAULL,
        0x5555555555555555ULL,
        0x00000000FFFFFFFFULL,
        0xFFFFFFFF00000000ULL,
        0x8000000000000001ULL,
        0x0F0F0F0F0F0F0F0FULL,
        0xFF00FF00FF00FF00ULL,
    };
    for (size_t stride : {3u, 5u, 7u, 16u, 63u})
        fills.push_back(strideMask64(stride));
    std::vector<BitVector> rows;
    for (uint64_t fill : fills)
        rows.push_back(rowOf(bits, [fill] { return fill; }));
    for (size_t pos : {size_t(0), bits / 2, bits - 1}) {
        BitVector row(bits);
        row.set(pos, true);
        rows.push_back(row);
    }
    for (int r = 0; r < 3; ++r)
        rows.push_back(rowOf(bits, [&rng] { return rng.next(); }));
    return rows;
}

TEST(InterleaveMap, LineAndWordPathsMatchTheColumnOracle)
{
    // Every degree the grammar admits, at widths that leave partial
    // top words and degrees that do not divide 64: the line kernel
    // (power-of-two degrees) and the word kernel (every degree) must
    // gather exactly bit b of slot s from physicalColumn(s, b), and
    // scatter back only those columns.
    Rng rng(71);
    for (size_t width : {1u, 7u, 39u, 64u, 72u, 137u}) {
        for (size_t degree = 1; degree <= 64; ++degree) {
            const InterleaveMap map(width, degree);
            const std::vector<BitVector> rows =
                rowPatterns(map.rowBits(), rng);
            const BitVector &background = rows.back();
            for (size_t r = 0; r < rows.size(); ++r) {
                const BitVector &row = rows[r];
                const std::string where = "w" + std::to_string(width) +
                                          "/i" + std::to_string(degree) +
                                          " pattern " + std::to_string(r);
                std::vector<BitVector> line;
                map.extractLine(row, line);
                ASSERT_EQ(line.size(), degree) << where;
                BitVector word;
                for (size_t slot = 0; slot < degree; ++slot) {
                    BitVector gathered(width);
                    for (size_t b = 0; b < width; ++b)
                        gathered.set(b,
                                     row.get(map.physicalColumn(slot, b)));
                    ASSERT_EQ(line[slot], gathered) << where;
                    ASSERT_TRUE(topBitsClear(line[slot])) << where;
                    map.extractWordInto(row, slot, word);
                    ASSERT_EQ(word, gathered) << where;
                    ASSERT_TRUE(topBitsClear(word)) << where;

                    BitVector scattered = background;
                    for (size_t b = 0; b < width; ++b)
                        scattered.set(map.physicalColumn(slot, b),
                                      gathered.get(b));
                    BitVector deposited = background;
                    map.depositWord(deposited, slot, gathered);
                    ASSERT_EQ(deposited, scattered) << where;
                    ASSERT_TRUE(topBitsClear(deposited)) << where;
                }
                // Every column belongs to one slot, so scattering the
                // gathered line over any row rebuilds this one.
                BitVector deposited = background;
                map.depositLine(line, deposited);
                ASSERT_EQ(deposited, row) << where;
                ASSERT_TRUE(topBitsClear(deposited)) << where;
            }
        }
    }
}

TEST(StrideMask, KnownPatterns)
{
    EXPECT_EQ(strideMask64(1), ~uint64_t(0));
    EXPECT_EQ(strideMask64(2), 0x5555555555555555ull);
    EXPECT_EQ(strideMask64(4), 0x1111111111111111ull);
    EXPECT_EQ(strideMask64(8), 0x0101010101010101ull);
    EXPECT_EQ(strideMask64(64), 1ull);
}

} // namespace
} // namespace tdc
