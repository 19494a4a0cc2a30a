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
 * The stride mask with bits set at 0, stride, 2*stride, ... (all
 * multiples of @p stride below 64). @pre 1 <= stride <= 64.
 */
uint64_t strideMask64(size_t stride);

} // namespace tdc

#endif // TDC_COMMON_BIT_SPAN_HH
