#include "array/memory_array.hh"

#include <algorithm>
#include <cassert>

namespace tdc
{

MemoryArray::MemoryArray(size_t rows, size_t cols)
    : numCols(cols), rowStore(rows, BitVector(cols))
{
    assert(rows > 0 && cols > 0);
}

BitVector
MemoryArray::readRow(size_t r) const
{
    BitVector row;
    readRowInto(r, row);
    return row;
}

void
MemoryArray::readRowInto(size_t r, BitVector &out) const
{
    assert(r < rows());
    ++reads;
    copyRowInto(r, out);
}

void
MemoryArray::copyRowInto(size_t r, BitVector &out) const
{
    assert(r < rows());
    out = rowStore[r];
    auto it = stuckByRow.find(r);
    if (it != stuckByRow.end()) {
        for (const auto &[c, v] : it->second)
            out.set(c, v);
    }
}

bool
MemoryArray::rowEquals(size_t r, const BitVector &value) const
{
    assert(r < rows());
    if (!rowHasStuck(r))
        return rowStore[r] == value;
    BitVector visible;
    copyRowInto(r, visible);
    return visible == value;
}

ConstBitSpan
MemoryArray::viewRow(size_t r) const
{
    assert(r < rows());
    assert(!rowHasStuck(r) && "stuck rows must be read through readRow");
    ++reads;
    return ConstBitSpan(rowStore[r]);
}

void
MemoryArray::writeRow(size_t r, const BitVector &value)
{
    assert(r < rows());
    assert(value.size() == cols());
    if (rowStore[r] == value)
        return;
    rowStore[r] = value;
    ++epoch;
}

void
MemoryArray::xorRow(size_t r, const BitVector &delta)
{
    assert(r < rows());
    assert(delta.size() == cols());
    if (delta.none())
        return;
    rowStore[r] ^= delta;
    ++epoch;
}

bool
MemoryArray::readBit(size_t r, size_t c) const
{
    assert(r < rows() && c < cols());
    auto it = stuckByRow.find(r);
    if (it != stuckByRow.end()) {
        for (const auto &[col, v] : it->second)
            if (col == c)
                return v;
    }
    return rowStore[r].get(c);
}

void
MemoryArray::writeBit(size_t r, size_t c, bool value)
{
    assert(r < rows() && c < cols());
    if (rowStore[r].get(c) == value)
        return;
    rowStore[r].set(c, value);
    ++epoch;
}

void
MemoryArray::flipBit(size_t r, size_t c)
{
    assert(r < rows() && c < cols());
    rowStore[r].flip(c);
    ++epoch;
}

void
MemoryArray::addStuckAt(size_t r, size_t c, bool value)
{
    assert(r < rows() && c < cols());
    auto &row_faults = stuckByRow[r];
    for (auto &[col, v] : row_faults) {
        if (col == c) {
            if (v != value) {
                v = value;
                ++epoch;
            }
            return;
        }
    }
    row_faults.emplace_back(c, value);
    ++epoch;
}

void
MemoryArray::clearFault(size_t r, size_t c)
{
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return;
    auto &row_faults = it->second;
    auto pos = std::find_if(row_faults.begin(), row_faults.end(),
                            [c](const auto &f) { return f.first == c; });
    if (pos == row_faults.end())
        return;
    row_faults.erase(pos);
    ++epoch;
    if (row_faults.empty())
        stuckByRow.erase(it);
}

std::vector<std::pair<size_t, size_t>>
MemoryArray::stuckRows() const
{
    std::vector<std::pair<size_t, size_t>> out;
    out.reserve(stuckByRow.size());
    for (const auto &[row, faults] : stuckByRow)
        out.emplace_back(row, faults.size());
    std::sort(out.begin(), out.end());
    return out;
}

void
MemoryArray::clearRowFaults(size_t r)
{
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return;
    // Materialize each stuck value into the stored state so the
    // visible row is unchanged by the overlay removal.
    for (const auto &[col, value] : it->second)
        rowStore[r].set(col, value);
    stuckByRow.erase(it);
    ++epoch;
}

bool
MemoryArray::isStuck(size_t r, size_t c) const
{
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return false;
    for (const auto &[col, v] : it->second)
        if (col == c)
            return true;
    return false;
}

} // namespace tdc
