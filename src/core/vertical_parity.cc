#include "core/vertical_parity.hh"

#include <cassert>

namespace tdc
{

VerticalParity::VerticalParity(size_t data_rows, size_t row_bits,
                               size_t groups)
    : coveredRows(data_rows), parity(groups, row_bits)
{
    assert(groups > 0);
    assert(data_rows >= groups);
}

void
VerticalParity::applyDelta(size_t r, const BitVector &delta)
{
    assert(delta.size() == rowBits());
    const size_t g = groupOf(r);
    if (!parity.rowHasStuck(g)) {
        // Hot path: fold the delta into the stored parity row in
        // place — no row-sized temporary, no separate read.
        parity.xorRow(g, delta);
    } else {
        // A stuck cell in the parity row: preserve the historical
        // semantics (the overlaid value is what gets XORed and
        // re-stored).
        BitVector row = parity.readRow(g);
        row ^= delta;
        parity.writeRow(g, row);
    }
}

} // namespace tdc
