/**
 * @file
 * DRAM-shaped array geometry: a rank of chips x banks x rows, where
 * each chip contributes one symbolBits-wide burst (x4/x8 device width)
 * per row. One array row is one rank-level symbol codeword; the cell
 * substrate is the same MemoryArray every fault and scrub path already
 * understands, annotated with the symbol width so symbol-granular
 * fault shapes (chip kill) land on whole-device column groups.
 */

#ifndef TDC_DRAM_DRAM_ARRAY_HH
#define TDC_DRAM_DRAM_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "array/memory_array.hh"

namespace tdc
{

/** Geometry of one DRAM rank as seen by the rank-level symbol code. */
struct DramGeometry
{
    /** Device data width: bits per chip per beat (x4 or x8). */
    size_t symbolBits = 4;

    /** Chips in the rank, data + check devices. */
    size_t chips = 15;

    /** Independent banks per chip (stacked row blocks here). */
    size_t banks = 2;

    size_t rowsPerBank = 32;

    size_t rows() const { return banks * rowsPerBank; }
    size_t cols() const { return chips * symbolBits; }
};

/**
 * One DRAM rank: a MemoryArray of geometry().rows() x geometry().cols()
 * cells, where chip i owns columns [i*symbolBits, (i+1)*symbolBits)
 * and bank b owns rows [b*rowsPerBank, (b+1)*rowsPerBank). Adds
 * symbol-granular access and per-chip / per-bank / per-column hard-
 * fault summaries for chipkill repair policies.
 */
class DramArray
{
  public:
    explicit DramArray(const DramGeometry &g);

    const DramGeometry &geometry() const { return geom; }
    MemoryArray &cells() { return array; }
    const MemoryArray &cells() const { return array; }

    size_t chipOfCol(size_t c) const { return c / geom.symbolBits; }

    /** Chip @p chip's symbol in row @p row, bit j = column chip*b+j. */
    uint32_t readSymbol(size_t row, size_t chip) const;

    void writeSymbol(size_t row, size_t chip, uint32_t value);

    /** All chips of @p row as a codeword (index = chip). */
    std::vector<uint32_t> readCodeword(size_t row) const;

    void writeCodeword(size_t row, const std::vector<uint32_t> &word);

    /**
     * Chips currently holding stuck-at cells, as (chip, stuck-cell
     * count) pairs sorted by chip — the repair-unit view a spare-chip
     * budget steers by.
     */
    std::vector<std::pair<size_t, size_t>> stuckChips() const;

    /** Per-column twin of stuckChips() for spare-column repair. */
    std::vector<std::pair<size_t, size_t>> stuckColumns() const;

    /** Drop every stuck-at fault in chip @p chip's column group. */
    void repairChip(size_t chip);

    /** Drop every stuck-at fault in column @p col. */
    void repairColumn(size_t col);

  private:
    DramGeometry geom;
    MemoryArray array;
};

} // namespace tdc

#endif // TDC_DRAM_DRAM_ARRAY_HH
