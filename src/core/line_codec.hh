/**
 * @file
 * Batched whole-line codec: encode/check/correct every interleaved
 * word of a physical row in one call.
 */

#ifndef TDC_CORE_LINE_CODEC_HH
#define TDC_CORE_LINE_CODEC_HH

#include <vector>

#include "array/interleave.hh"
#include "common/bit_vector.hh"
#include "ecc/code.hh"

namespace tdc
{

/**
 * Whole-row view of a per-word code under a bit-interleave map: a
 * physical row holds map.degree() codewords, bit-interleaved across
 * the columns. The codec batches the three row-granular operations
 * the array controllers perform — "is every word clean?", "encode all
 * words", "correct all correctable words in place" — behind one call
 * each, so the slot loop (and its per-slot extract) lives here
 * instead of being re-rolled at every call site.
 *
 * The payoff is the fused clean check: for an interleaved-parity
 * (EDCn) horizontal code whose data width is a multiple of n, column
 * c of the row lands in parity class c mod p of the period
 * p = degree * n, and the concatenation of all slots' syndromes is
 * exactly the whole row XOR-folded down to p bits. The fold is one
 * pass over the packed row words whenever p divides 64 (fold in-word)
 * or p is a multiple of 64 (fold row word i into lane i mod p/64); it
 * replaces degree extract+syndrome rounds, and correctLine returns at
 * once on a line it finds clean. Other periods (e.g. edc8/i3,
 * p = 24) keep the per-slot loop.
 *
 * Holds references to the code and map; both must outlive the codec.
 */
class LineCodec
{
  public:
    LineCodec(const Code &code, const InterleaveMap &map);

    /** True iff every slot of @p row_bits has a zero syndrome. */
    bool lineClean(const BitVector &row_bits) const;

    /**
     * Encode @p words (one data word per slot, words.size() ==
     * degree) and deposit the codewords into @p row_bits, which must
     * already be row-sized.
     */
    void encodeLine(const std::vector<BitVector> &words,
                    BitVector &row_bits) const;

    /**
     * Decode every slot of @p row_bits in place: correctable slots
     * are repaired (re-encoded and deposited), clean slots left
     * untouched. Returns false as soon as a slot is uncorrectable
     * (the row is then partially repaired, matching the historical
     * slot-loop semantics). @p changed reports whether any bit of the
     * row was rewritten. A line the fused fold finds clean returns
     * true at once, unchanged.
     */
    bool correctLine(BitVector &row_bits, bool &changed) const;

  private:
    const Code &code;
    const InterleaveMap &map;

    /**
     * Fold period p = degree * checkBits when the fused EDC clean
     * check applies (interleaved-parity code, n | k, and p | 64 or
     * 64 | p), else 0.
     */
    size_t fusedFoldBits;

    /** Recycled codeword scratch: row operations allocate nothing in
     *  steady state (same non-reentrancy trade as TwoDimArray). */
    mutable BitVector cwScratch;
};

} // namespace tdc

#endif // TDC_CORE_LINE_CODEC_HH
