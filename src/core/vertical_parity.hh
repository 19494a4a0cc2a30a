/**
 * @file
 * The vertical error-coding dimension: interleaved parity rows
 * maintained across data rows, kept off the access critical path.
 */

#ifndef TDC_CORE_VERTICAL_PARITY_HH
#define TDC_CORE_VERTICAL_PARITY_HH

#include <cstdint>

#include "array/memory_array.hh"
#include "common/bit_vector.hh"

namespace tdc
{

/**
 * V interleaved vertical parity rows over an R-row data bank: parity
 * row g holds the column-wise XOR of every data row r with
 * r mod V == g (the paper's "EDC32" vertical code when V = 32).
 *
 * The parity rows live in their own small MemoryArray so that faults
 * can be injected into the vertical code as well. Updates are
 * incremental: on a data write, the caller supplies old XOR new and
 * the parity row absorbs it (the reason every write becomes a
 * read-before-write in a 2D-protected cache).
 */
class VerticalParity
{
  public:
    /**
     * @param data_rows number of covered data rows (R)
     * @param row_bits physical row width in bits
     * @param groups number of parity rows (V)
     */
    VerticalParity(size_t data_rows, size_t row_bits, size_t groups);

    size_t groups() const { return parity.rows(); }
    size_t rowBits() const { return parity.cols(); }

    /** Parity group of data row @p r. */
    size_t groupOf(size_t r) const { return r % groups(); }

    /** Read parity row @p g. */
    BitVector readGroup(size_t g) const { return parity.readRow(g); }

    /**
     * Incremental update after a data write: XOR @p delta
     * (= old row ^ new row) into the parity row of data row @p r.
     */
    void applyDelta(size_t r, const BitVector &delta);

    /** Storage for fault injection into the vertical code itself. */
    MemoryArray &cells() { return parity; }
    const MemoryArray &cells() const { return parity; }

    /** Extra storage overhead: V parity rows / R data rows. */
    double storageOverhead() const
    {
        return double(groups()) / double(coveredRows);
    }

  private:
    size_t coveredRows;
    MemoryArray parity;
};

} // namespace tdc

#endif // TDC_CORE_VERTICAL_PARITY_HH
