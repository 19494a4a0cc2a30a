/**
 * @file
 * Physical bit interleaving (column multiplexing) geometry.
 */

#ifndef TDC_ARRAY_INTERLEAVE_HH
#define TDC_ARRAY_INTERLEAVE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

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
 * Gather/scatter is word-parallel and portable at every degree in
 * [1, 64] (the range the scheme grammar's /i admits; others are
 * refused), with two kernels that both follow from the degree d:
 *
 * - Word kernel (one slot, every degree). Within a 64-bit row word
 *   the columns of one slot are the positions congruent to a phase
 *   (mod d). Shifting the phase to bit 0 and masking every d-th bit
 *   leaves the slot's bits d apart; at most five merge stages, stage
 *   i shifting right by (d-1)*2^i, pack them to the low end. Expand
 *   replays the stages in reverse. When d divides 64 the phase is
 *   the slot in every row word; otherwise it walks by 64 mod d per
 *   word, and the same masks serve every phase.
 * - Line kernel (every slot at once, d = 2^L). Column c of a row
 *   word belongs to slot c mod d as bit c / d, so gathering all
 *   lanes is a rotation of the 6-bit column index by L: at most five
 *   index-bit swaps (delta swaps, Hacker's Delight 7-2/7-6) leave
 *   slot s's bits in the s-th 64/d-bit chunk. Other degrees gather
 *   a line slot by slot through the word kernel, because their slots
 *   do not repeat within a row word.
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
     * The allocation-free form the access hot paths use; a clean read
     * passes the stored row it borrows (MemoryArray::viewRow).
     */
    void extractWordInto(const BitVector &row, size_t slot,
                         BitVector &word) const;

    /** Scatter @p word into slot @p slot of a physical row. */
    void depositWord(BitVector &row, size_t slot,
                     const BitVector &word) const;

    /**
     * Gather every slot of @p row: @p words ends with degree()
     * codewords, words[s] == extractWord(row, s), reusing the storage
     * it already has.
     */
    void extractLine(const BitVector &row,
                     std::vector<BitVector> &words) const;

    /**
     * Scatter degree() codewords into @p row (row-sized), slot s from
     * words[s]; every column of the row is written.
     */
    void depositLine(const std::vector<BitVector> &words,
                     BitVector &row) const;

  private:
    /** Word kernel: pack the positions = phase (mod d) of @p x. */
    uint64_t compressLane(uint64_t x, size_t phase) const;

    /** Word kernel inverse: spread the low bits of @p x d apart
     *  (bits past the lane's count must be clear). */
    uint64_t expandLane(uint64_t x) const;

    /** Line kernel: rotate the column index of @p x right by L. */
    uint64_t transposeLanes(uint64_t x) const;

    /** Inverse of transposeLanes (the swaps in reverse order). */
    uint64_t untransposeLanes(uint64_t x) const;

    size_t wordWidth;
    size_t intvDegree;

    /**
     * Phase advance between consecutive 64-bit row words,
     * (degree - 64 mod degree) mod degree: zero exactly when the
     * degree divides 64.
     */
    size_t phaseStep = 0;

    /** Lanes of the slot at phase p in a full row word, and in the
     *  row's last (possibly partial) word. */
    uint8_t fullLanes[64] = {};
    uint8_t lastLanes[64] = {};

    /**
     * Word kernel: merge stage i shifts by mergeShifts[i] and keeps
     * groupMasks[i + 1]. groupMasks[i] selects the groups of 2^i bits
     * that start every d*2^i positions (groupMasks[0] is every d-th
     * bit). Stages past the ones the degree needs shift by 0 and keep
     * every bit, so the loops have a fixed trip count.
     */
    static constexpr unsigned kMergeStages = 5;
    uint64_t groupMasks[kMergeStages + 1] = {};
    unsigned mergeShifts[kMergeStages] = {};

    /** Line kernel (power-of-two degrees): delta swap p <-> p+shift
     *  for every p under mask. */
    struct DeltaSwap
    {
        uint64_t mask;
        unsigned shift;
    };
    DeltaSwap swaps[5] = {};
    unsigned swapCount = 0;
    /** log2(degree) when the degree is a power of two, else 0. */
    unsigned lineLog2 = 0;
    bool lineKernel = false;
};

/**
 * The stride mask with bits set at 0, stride, 2*stride, ... (all
 * multiples of @p stride below 64). @pre 1 <= stride <= 64.
 */
uint64_t strideMask64(size_t stride);

} // namespace tdc

#endif // TDC_ARRAY_INTERLEAVE_HH
