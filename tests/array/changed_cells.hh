/**
 * @file
 * The cells one fault event changed, found by diffing the array before
 * and after it: FaultInjector::inject returns only the placed
 * rectangle, so tests that check individual cells recover them here.
 */

#ifndef TDC_TESTS_ARRAY_CHANGED_CELLS_HH
#define TDC_TESTS_ARRAY_CHANGED_CELLS_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "array/memory_array.hh"

namespace tdc
{

/** Cells (row, col) whose visible value or stuck-at state differs
 *  between @p before and @p after, in row-major order. */
inline std::vector<std::pair<size_t, size_t>>
changedCells(const MemoryArray &before, const MemoryArray &after)
{
    std::vector<std::pair<size_t, size_t>> cells;
    for (size_t r = 0; r < after.rows(); ++r)
        for (size_t c = 0; c < after.cols(); ++c)
            if (before.readBit(r, c) != after.readBit(r, c) ||
                before.isStuck(r, c) != after.isStuck(r, c))
                cells.emplace_back(r, c);
    return cells;
}

} // namespace tdc

#endif // TDC_TESTS_ARRAY_CHANGED_CELLS_HH
