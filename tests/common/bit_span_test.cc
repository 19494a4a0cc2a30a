#include <gtest/gtest.h>

#include <vector>

#include "common/bit_span.hh"
#include "common/bit_vector.hh"
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

TEST(ConstBitSpan, MirrorsTheViewedVector)
{
    Rng rng(1);
    for (size_t nbits : {1u, 7u, 63u, 64u, 65u, 128u, 288u, 500u}) {
        const BitVector v = randomVector(rng, nbits);
        ConstBitSpan span(v);
        ASSERT_EQ(span.size(), v.size());
        EXPECT_EQ(span.wordCount(), v.wordCount());
        EXPECT_EQ(span.words(), v.wordData());
        for (size_t i = 0; i < nbits; ++i)
            ASSERT_EQ(span.get(i), v.get(i)) << "bit " << i;
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

// --- BitVector word-level additions & small-buffer storage ---------

TEST(BitVectorWords, SetBitsSubWordEdges)
{
    BitVector v(100);
    v.setBits(0, 0xFF, 8);
    EXPECT_EQ(v.toUint64(0, 8), 0xFFu);
    // Straddles the word 0 / word 1 boundary.
    v.setBits(60, 0b1011, 4);
    EXPECT_EQ(v.toUint64(60, 4), 0b1011u);
    // Truncated at the end of the vector.
    v.setBits(96, 0xFF, 8);
    EXPECT_EQ(v.toUint64(96, 4), 0xFu);
    EXPECT_EQ(v.size(), 100u);
    // Value bits above len must be masked off.
    BitVector w(64);
    w.setBits(4, ~uint64_t(0), 4);
    EXPECT_EQ(w.popcount(), 4u);
}

TEST(BitVectorWords, ToUint64AcrossWordBoundary)
{
    Rng rng(8);
    const BitVector v = randomVector(rng, 200);
    for (size_t pos : {0u, 1u, 37u, 63u, 64u, 65u, 130u, 190u}) {
        for (size_t len : {1u, 8u, 33u, 64u}) {
            uint64_t expect = 0;
            const size_t n = std::min(len, v.size() - pos);
            for (size_t i = 0; i < n; ++i)
                expect |= uint64_t(v.get(pos + i)) << i;
            ASSERT_EQ(v.toUint64(pos, len), expect)
                << "pos " << pos << " len " << len;
        }
    }
}

TEST(BitVectorWords, SetSliceMatchesBitLoop)
{
    Rng rng(9);
    for (size_t pos : {0u, 5u, 64u, 70u, 127u}) {
        for (size_t len : {1u, 7u, 64u, 72u, 150u}) {
            BitVector dst = randomVector(rng, 300);
            BitVector ref = dst;
            const BitVector src = randomVector(rng, len);
            dst.setSlice(pos, src);
            for (size_t i = 0; i < len; ++i)
                ref.set(pos + i, src.get(i));
            ASSERT_EQ(dst, ref) << "pos " << pos << " len " << len;
        }
    }
}

TEST(BitVectorStorage, CopyAndMoveAcrossInlineBoundary)
{
    Rng rng(10);
    // 320 bits is the inline capacity; 321+ spills to the heap.
    for (size_t nbits : {64u, 320u, 321u, 1024u}) {
        const BitVector orig = randomVector(rng, nbits);

        BitVector copy(orig);
        EXPECT_EQ(copy, orig);

        BitVector moved(std::move(copy));
        EXPECT_EQ(moved, orig);

        BitVector assigned;
        assigned = orig;
        EXPECT_EQ(assigned, orig);

        BitVector moveAssigned;
        moveAssigned = std::move(moved);
        EXPECT_EQ(moveAssigned, orig);

        // Assigning into a previously-heap vector must reuse/shrink
        // correctly in both directions.
        BitVector big = randomVector(rng, 1000);
        big = orig;
        EXPECT_EQ(big, orig);
        BitVector small = randomVector(rng, 10);
        small = orig;
        EXPECT_EQ(small, orig);
    }
}

TEST(BitVectorStorage, GrowthAcrossInlineBoundaryPreservesContent)
{
    Rng rng(11);
    BitVector v;
    std::vector<bool> expect;
    for (int i = 0; i < 400; ++i) {
        const bool bit = rng.nextBool();
        v.pushBack(bit);
        expect.push_back(bit);
    }
    ASSERT_EQ(v.size(), 400u);
    for (size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(v.get(i), expect[i]) << "bit " << i;
}

} // namespace
} // namespace tdc
