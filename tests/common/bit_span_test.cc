#include <gtest/gtest.h>

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

/** Naive reference for PEXT: gather mask-selected bits to the low end. */
uint64_t
compressRef(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    size_t o = 0;
    for (size_t i = 0; i < 64; ++i) {
        if ((mask >> i) & 1) {
            out |= ((x >> i) & 1) << o;
            ++o;
        }
    }
    return out;
}

/** Naive reference for PDEP: scatter low bits to mask positions. */
uint64_t
expandRef(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    size_t o = 0;
    for (size_t i = 0; i < 64; ++i) {
        if ((mask >> i) & 1) {
            out |= ((x >> o) & 1) << i;
            ++o;
        }
    }
    return out;
}

TEST(BitCompressPlan, MatchesNaiveReferenceOnRandomMasks)
{
    Rng rng(6);
    for (int m = 0; m < 50; ++m) {
        const uint64_t mask = rng.next();
        BitCompressPlan plan(mask);
        ASSERT_EQ(plan.count(), unsigned(std::popcount(mask)));
        for (int t = 0; t < 50; ++t) {
            const uint64_t x = rng.next();
            ASSERT_EQ(plan.compress(x), compressRef(x, mask))
                << "mask " << std::hex << mask << " x " << x;
            ASSERT_EQ(plan.expand(x), expandRef(x, mask))
                << "mask " << std::hex << mask << " x " << x;
        }
    }
}

TEST(BitCompressPlan, StrideMasksRoundTrip)
{
    Rng rng(7);
    for (size_t stride : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        BitCompressPlan plan(strideMask64(stride));
        for (int t = 0; t < 100; ++t) {
            const uint64_t x = rng.next();
            // compress(expand(low bits)) is the identity on the low bits.
            const uint64_t low =
                plan.count() < 64 ? x & ((uint64_t(1) << plan.count()) - 1)
                                  : x;
            EXPECT_EQ(plan.compress(plan.expand(low)), low);
            // expand(compress(x)) keeps exactly the masked bits.
            EXPECT_EQ(plan.expand(plan.compress(x)), x & plan.mask());
        }
    }
}

TEST(BitCompressPlan, EdgeMasks)
{
    BitCompressPlan zero(0);
    EXPECT_EQ(zero.count(), 0u);
    EXPECT_EQ(zero.compress(~uint64_t(0)), 0u);
    EXPECT_EQ(zero.expand(~uint64_t(0)), 0u);

    BitCompressPlan all(~uint64_t(0));
    EXPECT_EQ(all.count(), 64u);
    EXPECT_EQ(all.compress(0x123456789abcdef0ull), 0x123456789abcdef0ull);
    EXPECT_EQ(all.expand(0x123456789abcdef0ull), 0x123456789abcdef0ull);

    BitCompressPlan top(uint64_t(1) << 63);
    EXPECT_EQ(top.compress(~uint64_t(0)), 1u);
    EXPECT_EQ(top.expand(1), uint64_t(1) << 63);
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
    std::string expect;
    for (int i = 0; i < 400; ++i) {
        const bool bit = rng.nextBool();
        v.pushBack(bit);
        expect.push_back(bit ? '1' : '0');
    }
    EXPECT_EQ(v.size(), 400u);
    EXPECT_EQ(v.toString(), expect);

    BitVector a = randomVector(rng, 300);
    const BitVector b = randomVector(rng, 300);
    const BitVector aCopy = a;
    a.append(b);
    ASSERT_EQ(a.size(), 600u);
    EXPECT_EQ(a.slice(0, 300), aCopy);
    EXPECT_EQ(a.slice(300, 300), b);
}

} // namespace
} // namespace tdc
