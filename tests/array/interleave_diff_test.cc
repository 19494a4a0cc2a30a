#include <gtest/gtest.h>

#include <stdexcept>

#include "array/interleave.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

BitVector
randomVector(Rng &rng, size_t nbits)
{
    BitVector v(nbits);
    for (size_t i = 0; i < nbits; ++i)
        v.set(i, rng.nextBool());
    return v;
}

/** Naive bit-loop oracle for extractWord. */
BitVector
extractRef(const InterleaveMap &map, const BitVector &row, size_t slot)
{
    BitVector word(map.wordBits());
    for (size_t b = 0; b < map.wordBits(); ++b)
        word.set(b, row.get(map.physicalColumn(slot, b)));
    return word;
}

/** Naive bit-loop oracle for depositWord. */
void
depositRef(const InterleaveMap &map, BitVector &row, size_t slot,
           const BitVector &word)
{
    for (size_t b = 0; b < map.wordBits(); ++b)
        row.set(map.physicalColumn(slot, b), word.get(b));
}

/**
 * Differential test: the word-parallel strided gather/scatter must be
 * bit-exact against the naive per-bit loop for every slot, across
 * power-of-two degrees, degrees that do not divide 64 (the phase walks
 * between row words), and word widths that exercise sub-word tails and
 * word-boundary straddles.
 */
class InterleaveDiffTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(InterleaveDiffTest, ExtractMatchesNaiveLoop)
{
    const auto [wordBits, degree] = GetParam();
    InterleaveMap map(wordBits, degree);
    Rng rng(100 + wordBits * 131 + degree);
    for (int trial = 0; trial < 20; ++trial) {
        const BitVector row = randomVector(rng, map.rowBits());
        for (size_t slot = 0; slot < degree; ++slot) {
            ASSERT_EQ(map.extractWord(row, slot),
                      extractRef(map, row, slot))
                << "slot " << slot << " trial " << trial;
        }
    }
}

TEST_P(InterleaveDiffTest, DepositMatchesNaiveLoop)
{
    const auto [wordBits, degree] = GetParam();
    InterleaveMap map(wordBits, degree);
    Rng rng(200 + wordBits * 131 + degree);
    for (int trial = 0; trial < 20; ++trial) {
        const BitVector base = randomVector(rng, map.rowBits());
        const BitVector word = randomVector(rng, wordBits);
        for (size_t slot = 0; slot < degree; ++slot) {
            BitVector fast = base;
            BitVector ref = base;
            map.depositWord(fast, slot, word);
            depositRef(map, ref, slot, word);
            ASSERT_EQ(fast, ref) << "slot " << slot << " trial " << trial;
        }
    }
}

TEST_P(InterleaveDiffTest, DepositThenExtractRoundTrips)
{
    const auto [wordBits, degree] = GetParam();
    InterleaveMap map(wordBits, degree);
    Rng rng(300 + wordBits * 131 + degree);
    BitVector row(map.rowBits());
    std::vector<BitVector> words(degree);
    for (size_t slot = 0; slot < degree; ++slot) {
        words[slot] = randomVector(rng, wordBits);
        map.depositWord(row, slot, words[slot]);
    }
    // Every slot must read back intact: deposits are disjoint.
    for (size_t slot = 0; slot < degree; ++slot)
        ASSERT_EQ(map.extractWord(row, slot), words[slot]);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, InterleaveDiffTest,
    ::testing::Values(
        // Paper geometries: L1 EDC8 (72,64) x4, L2 EDC16 (272,256) x2,
        // SECDED (72,64) x4.
        std::make_pair(size_t(72), size_t(4)),
        std::make_pair(size_t(272), size_t(2)),
        std::make_pair(size_t(72), size_t(1)),
        // Power-of-two fast-path degrees with odd word widths.
        std::make_pair(size_t(13), size_t(2)),
        std::make_pair(size_t(65), size_t(8)),
        std::make_pair(size_t(7), size_t(16)),
        std::make_pair(size_t(3), size_t(32)),
        std::make_pair(size_t(2), size_t(64)),
        std::make_pair(size_t(64), size_t(64)),
        // Degrees that do not divide 64.
        std::make_pair(size_t(72), size_t(3)),
        std::make_pair(size_t(29), size_t(5)),
        std::make_pair(size_t(10), size_t(7))));

TEST(InterleaveFastPath, EngagedForEveryDegreeUpTo64)
{
    // The per-phase plan cache serves every degree the scheme grammar
    // admits, [1, 64]; the map refuses any other degree.
    Rng rng(400);
    for (size_t d = 1; d <= 64; ++d) {
        const InterleaveMap map(16, d);
        const BitVector row = randomVector(rng, map.rowBits());
        const size_t slot = d - 1;
        ASSERT_EQ(map.extractWord(row, slot), extractRef(map, row, slot))
            << "degree " << d;
    }
    for (size_t d : {0u, 65u, 96u, 128u})
        EXPECT_THROW(InterleaveMap(16, d), std::invalid_argument)
            << "degree " << d;
}

TEST(InterleaveFastPath, ExtractWordIntoReusesBuffer)
{
    InterleaveMap map(72, 4);
    Rng rng(42);
    const BitVector row = randomVector(rng, map.rowBits());
    BitVector scratch; // wrong size on first use: must self-correct
    map.extractWordInto(row, 2, scratch);
    EXPECT_EQ(scratch, extractRef(map, row, 2));
    // Second call with a stale value in the buffer must fully
    // overwrite it.
    map.extractWordInto(row, 3, scratch);
    EXPECT_EQ(scratch, extractRef(map, row, 3));
}

} // namespace
} // namespace tdc
