/**
 * @file
 * Non-owning views over BitVector word storage, plus the word-level
 * primitives the codec/array hot loops are built from.
 *
 * A BitVector always starts its bits at bit 0 of word 0, so a span over
 * one is word-aligned by construction. Spans never allocate: they are
 * (pointer, bit-length) pairs, cheap to pass by value, and let the
 * access-critical paths (TwoDimArray::readWord/writeWord, the EDC and
 * Hsiao codecs, InterleaveMap gather/scatter) operate on rows in place
 * instead of constructing row-sized temporaries per access.
 */

#ifndef TDC_COMMON_BIT_SPAN_HH
#define TDC_COMMON_BIT_SPAN_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/bit_vector.hh"

namespace tdc
{

/**
 * Read-only word-aligned view of @p nbits bits packed into uint64_t
 * words, bit 0 = LSB of word 0. The invariant of BitVector carries
 * over: bits at positions >= size() in the top word are zero.
 */
class ConstBitSpan
{
  public:
    ConstBitSpan(const uint64_t *words, size_t nbits)
        : wordPtr(words), numBits(nbits)
    {
    }

    /** View of an entire BitVector. */
    explicit ConstBitSpan(const BitVector &v)
        : ConstBitSpan(v.wordData(), v.size())
    {
    }

    size_t size() const { return numBits; }

    /** Number of 64-bit words backing the span. */
    size_t wordCount() const { return (numBits + 63) / 64; }

    const uint64_t *words() const { return wordPtr; }

    bool get(size_t pos) const
    {
        assert(pos < numBits);
        return (wordPtr[pos / 64] >> (pos % 64)) & 1;
    }

  private:
    const uint64_t *wordPtr;
    size_t numBits;
};

/**
 * Precomputed plan for compressing (gathering) the bits selected by a
 * fixed mask to the low end of a word, and for the inverse expansion
 * (scatter). On a BMI2-capable machine (and unless TDC_SIMD forces
 * the scalar tier — see common/cpu_features.hh) compress/expand are
 * single PEXT/PDEP instructions; the retained software path is the
 * O(log w) butterfly network of Hacker's Delight 7-4, built once per
 * mask, so the scalar per-word cost is 6 shift/XOR/AND stages (log2
 * of the word width) regardless of mask weight. Both paths are
 * bit-identical; the scalar one doubles as the differential oracle.
 *
 * InterleaveMap uses one plan per interleave degree: the stride mask
 * 0b...000100010001 selects every degree-th bit, and compressing a
 * shifted row word gathers one codeword's bits out of the interleaved
 * physical row in a handful of ALU ops instead of a per-bit loop.
 */
class BitCompressPlan
{
  public:
    explicit BitCompressPlan(uint64_t mask);

    uint64_t mask() const { return selectMask; }

    /** Number of selected bits = size of the compressed result. */
    unsigned count() const { return bitCount; }

    /** PEXT: gather the bits of @p x under the mask to the low end. */
    uint64_t compress(uint64_t x) const;

    /**
     * PDEP: scatter the low count() bits of @p x to the mask positions.
     * Bits of @p x above count() are ignored.
     */
    uint64_t expand(uint64_t x) const;

  private:
    static constexpr unsigned stages = 6; // log2(64)

    uint64_t selectMask;
    unsigned bitCount;
    /** Butterfly stage masks for compress (Hacker's Delight 7-4). */
    uint64_t moveMasks[stages];
};

/**
 * The stride mask with bits set at 0, stride, 2*stride, ... (all
 * multiples of @p stride below 64). @pre 1 <= stride <= 64.
 */
uint64_t strideMask64(size_t stride);

} // namespace tdc

#endif // TDC_COMMON_BIT_SPAN_HH
