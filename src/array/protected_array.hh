/**
 * @file
 * Conventional one-dimensional protection: per-word horizontal code +
 * physical bit interleaving. The baseline of Figures 3(a) and 3(b).
 */

#ifndef TDC_ARRAY_PROTECTED_ARRAY_HH
#define TDC_ARRAY_PROTECTED_ARRAY_HH

#include <optional>

#include "array/interleave.hh"
#include "array/memory_array.hh"
#include "ecc/code.hh"

namespace tdc
{

/** Outcome of one protected word access. */
struct AccessResult
{
    DecodeStatus status = DecodeStatus::kClean;
    BitVector data;

    bool ok() const { return status != DecodeStatus::kDetectedUncorrectable; }
};

/**
 * An SRAM array protected the conventional way: each logical word is
 * encoded with a per-word code and the resulting codewords are d-way
 * physically interleaved along rows. There is no vertical dimension;
 * whatever the horizontal code cannot correct is lost.
 *
 * Geometry: dataRows x (degree * codewordBits) physical cells, holding
 * dataRows * degree logical words.
 */
class ProtectedArray
{
  public:
    /**
     * @param rows number of physical rows
     * @param code per-word horizontal code (shared, immutable)
     * @param degree physical interleave factor
     */
    ProtectedArray(size_t rows, CodePtr code, size_t degree);

    size_t rows() const { return array.rows(); }
    size_t wordsPerRow() const { return map.degree(); }
    size_t words() const { return rows() * wordsPerRow(); }
    size_t dataBits() const { return horizontal->dataBits(); }

    /** Underlying cell array, exposed for fault injection. */
    MemoryArray &cells() { return array; }
    const MemoryArray &cells() const { return array; }

    /** Interleave geometry. */
    const InterleaveMap &interleave() const { return map; }

    /** The horizontal code. */
    const Code &code() const { return *horizontal; }

    /** Encode and store @p data into word @p slot of row @p row. */
    void writeWord(size_t row, size_t slot, const BitVector &data);

    /**
     * Store a whole encoded line into row @p row in one row write:
     * @p line_bits holds wordsPerRow() codewords interleaved as the
     * map lays them out. On a row without stuck-at cells the result
     * equals wordsPerRow() writeWord calls storing the same words.
     */
    void writeLine(size_t row, const BitVector &line_bits);

    /**
     * Read and decode word @p slot of row @p row. On kCorrected the
     * repaired codeword is written back (in-line correction).
     */
    AccessResult readWord(size_t row, size_t slot);

    /** Decode without write-back (used by scrubbing sweeps). */
    AccessResult peekWord(size_t row, size_t slot) const;

    /**
     * Fraction of cell storage spent on check bits:
     * checkBits / dataBits per word (interleaving does not change it).
     */
    double storageOverhead() const { return horizontal->storageOverhead(); }

    /**
     * Widest physically-contiguous row-direction error guaranteed
     * covered (detected, and corrected iff the code corrects):
     * degree * per-word guarantee.
     */
    size_t contiguousDetectWidth() const;
    size_t contiguousCorrectWidth() const;

  private:
    CodePtr horizontal;
    InterleaveMap map;
    MemoryArray array;
};

} // namespace tdc

#endif // TDC_ARRAY_PROTECTED_ARRAY_HH
