/**
 * @file
 * Functional model of one SRAM cell array with a hard-fault overlay.
 */

#ifndef TDC_ARRAY_MEMORY_ARRAY_HH
#define TDC_ARRAY_MEMORY_ARRAY_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_span.hh"
#include "common/bit_vector.hh"

namespace tdc
{

/**
 * A rows x cols SRAM cell array. Stored state is one BitVector per
 * physical row ("horizontal" is the wordline direction, "vertical"
 * the bitline direction, as in the paper); an overlay of stuck-at
 * faults models manufacture-time and in-field hard errors: a stuck
 * cell reads its stuck value regardless of what was written. Soft
 * errors are injected by flipping stored state directly (see
 * FaultInjector).
 *
 * Reads and writes are whole physical rows, matching wordline
 * granularity; the interleave map slices words out of rows. The fault
 * overlay is kept per row, so fault-free rows (the overwhelmingly
 * common case) can be *borrowed* as a ConstBitSpan instead of copied —
 * the basis of the allocation-free clean-read path in TwoDimArray.
 */
class MemoryArray
{
  public:
    MemoryArray(size_t rows, size_t cols);

    size_t rows() const { return rowStore.size(); }
    size_t cols() const { return numCols; }

    /**
     * Symbol (device burst) width annotation: how many adjacent
     * columns one physical device contributes per row. 1 for plain
     * SRAM bit arrays; DramArray sets the per-chip burst width so
     * symbol-granular fault shapes (chip kill) know the column
     * grouping. Purely an annotation — no read/write path consults it.
     * @pre cols() % bits == 0
     */
    void setSymbolBits(size_t bits) { symbolWidth = bits; }
    size_t symbolBits() const { return symbolWidth; }

    /** Read physical row @p r with stuck-at faults applied. */
    BitVector readRow(size_t r) const;

    /**
     * Read physical row @p r into @p out, reusing its storage (the
     * allocation-free form for reusable row scratch buffers).
     */
    void readRowInto(size_t r, BitVector &out) const;

    /**
     * Snapshot row @p r (with faults applied) into @p out *without*
     * charging a port access. For consumers that already read/latched
     * the row this access — e.g. the in-line correction path, which
     * re-materializes the row it just borrowed — so the modeled read
     * count stays one per access.
     */
    void copyRowInto(size_t r, BitVector &out) const;

    /**
     * Borrow physical row @p r as a non-owning view — no copy, no
     * allocation. @pre !rowHasStuck(r) (a stuck overlay would need a
     * materialized copy; callers check and fall back to readRow).
     * The view is invalidated by any write to the array.
     */
    ConstBitSpan viewRow(size_t r) const;

    /**
     * True iff row @p r as readRow would return it (stuck-at overlay
     * applied) equals @p value. A simulator-side comparison against
     * golden content, not a modelled access: charges no port read.
     */
    bool rowEquals(size_t r, const BitVector &value) const;

    /** True iff any cell of row @p r has a stuck-at fault. */
    bool rowHasStuck(size_t r) const
    {
        return !stuckByRow.empty() && stuckByRow.count(r) != 0;
    }

    /** Write physical row @p r (stuck cells silently keep their value). */
    void writeRow(size_t r, const BitVector &value);

    /**
     * XOR @p delta into stored row @p r: the in-place form of
     * readRow ^ delta followed by writeRow, used by the incremental
     * vertical-parity update. Counts as one write (the read-modify-
     * write happens at the sense amps, not through the port model).
     */
    void xorRow(size_t r, const BitVector &delta);

    /** Read a single cell (with faults applied). */
    bool readBit(size_t r, size_t c) const;

    /** Write a single cell. */
    void writeBit(size_t r, size_t c, bool value);

    /** Flip stored state (models a soft-error upset). */
    void flipBit(size_t r, size_t c);

    /** Pin cell (r, c) to @p value until clearFault/clearRowFaults. */
    void addStuckAt(size_t r, size_t c, bool value);

    /** Remove a stuck-at fault (cell reverts to stored state). */
    void clearFault(size_t r, size_t c);

    /**
     * Rows currently holding stuck-at cells, as (row, stuck-cell
     * count) pairs sorted by row index — a deterministic snapshot of
     * the hard-fault overlay for repair policies (spare-row budgets
     * pick the most-stuck row first).
     */
    std::vector<std::pair<size_t, size_t>> stuckRows() const;

    /**
     * Clear every stuck-at fault in row @p r, preserving each cell's
     * visible value: the stored bit is set to the value the cell was
     * stuck at before the overlay entry is dropped. Visible state is
     * therefore unchanged, so incrementally-maintained derived state
     * (vertical / product parity, which tracks visible values through
     * read-before-write) stays consistent across the repair.
     */
    void clearRowFaults(size_t r);

    /** True iff cell (r, c) has a stuck-at fault. */
    bool isStuck(size_t r, size_t c) const;

    uint64_t readCount() const { return reads; }

    /**
     * Mutation epoch: moves exactly when stored bits or the stuck-at
     * overlay change, never on reads and never on a write that leaves
     * the state as it was (writeRow of the same row, xorRow of a zero
     * delta, writeBit of the stored value, re-pinning a stuck cell to
     * its stuck value, clearing a fault that is not there). Equal
     * epochs therefore mean equal state, which lets TwoDimArray skip a
     * recovery sweep it already knows fails. Content-aware on purpose:
     * a failing reconstruction rewrites the same row on every attempt.
     */
    uint64_t version() const { return epoch; }

  private:
    size_t numCols;
    std::vector<BitVector> rowStore;
    /** Stuck cells of each faulty row, as (column, stuck value). */
    std::unordered_map<size_t, std::vector<std::pair<size_t, bool>>>
        stuckByRow;
    size_t symbolWidth = 1;
    mutable uint64_t reads = 0;
    uint64_t epoch = 0;
};

} // namespace tdc

#endif // TDC_ARRAY_MEMORY_ARRAY_HH
