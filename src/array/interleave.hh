/**
 * @file
 * Physical bit interleaving (column multiplexing) geometry.
 */

#ifndef TDC_ARRAY_INTERLEAVE_HH
#define TDC_ARRAY_INTERLEAVE_HH

#include <cstddef>
#include <vector>

#include "common/bit_span.hh"
#include "common/bit_vector.hh"

namespace tdc
{

/**
 * Maps logical codeword bits to physical columns of a bit-interleaved
 * SRAM row (Figure 2(a) of the paper).
 *
 * A physical row holds @p degree codewords of @p wordBits bits each,
 * interleaved so that bit b of word w sits at physical column
 * b*degree + w. Physically adjacent cells therefore belong to
 * different logical words, which is what converts a physically
 * contiguous multi-bit upset into <= degree separate small errors,
 * one per codeword.
 *
 * Gather/scatter is word-parallel at every degree in [1, 64] (the
 * range the scheme grammar's /i admits; others are refused): within a
 * 64-bit row word the columns of one slot are the positions congruent
 * to a fixed phase (mod degree), so each phase gets a precomputed
 * PEXT-style compress plan (BitCompressPlan — a single hardware PEXT/
 * PDEP on BMI2 machines). When the degree divides 64 the phase is the
 * slot index in every word (the classic stride case); otherwise the
 * phase walks by 64 mod degree per word and the per-phase plan cache
 * covers all of them, so non-dividing degrees (e.g. i3) run the same
 * path.
 */
class InterleaveMap
{
  public:
    /**
     * @param word_bits codeword width (data + check bits)
     * @param degree interleave factor (1 = no interleaving)
     * @throws std::invalid_argument unless degree is in [1, 64]
     */
    InterleaveMap(size_t word_bits, size_t degree);

    size_t wordBits() const { return wordWidth; }
    size_t degree() const { return intvDegree; }

    /** Physical row width = wordBits * degree. */
    size_t rowBits() const { return wordWidth * intvDegree; }

    /** Physical column of bit @p bit of word slot @p slot. */
    size_t physicalColumn(size_t slot, size_t bit) const;

    /** Gather word slot @p slot out of a physical row. */
    BitVector extractWord(const BitVector &row, size_t slot) const;

    /**
     * Gather word slot @p slot out of @p row into @p word, reusing
     * the storage of @p word (resized once if its length differs).
     * The allocation-free form the access hot paths use; the span
     * overload lets a clean read borrow the stored row directly.
     */
    void extractWordInto(ConstBitSpan row, size_t slot,
                         BitVector &word) const;
    void extractWordInto(const BitVector &row, size_t slot,
                         BitVector &word) const
    {
        extractWordInto(ConstBitSpan(row), slot, word);
    }

    /** Scatter @p word into slot @p slot of a physical row. */
    void depositWord(BitVector &row, size_t slot,
                     const BitVector &word) const;

  private:
    size_t wordWidth;
    size_t intvDegree;

    /**
     * Plan cache, one compress/expand plan per in-word phase: plans[p]
     * selects word positions congruent to p (mod degree).
     */
    std::vector<BitCompressPlan> plans;

    /**
     * Phase advance between consecutive 64-bit row words,
     * (degree - 64 mod degree) mod degree: zero exactly when the
     * degree divides 64.
     */
    size_t phaseStep = 0;
};

} // namespace tdc

#endif // TDC_ARRAY_INTERLEAVE_HH
