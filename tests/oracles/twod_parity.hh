/**
 * @file
 * The vertical-parity invariant of a 2D bank, checked from scratch:
 * every parity row equals the XOR of the data rows of its group.
 */

#ifndef TDC_TESTS_ORACLES_TWOD_PARITY_HH
#define TDC_TESTS_ORACLES_TWOD_PARITY_HH

#include "core/twod_array.hh"

namespace tdc::oracle
{

/** True iff every parity row of @p arr matches its data rows (no repair). */
inline bool
verifyParity(TwoDimArray &arr)
{
    const VerticalParity &parity = arr.vertical();
    for (size_t g = 0; g < parity.groups(); ++g) {
        BitVector acc = parity.readGroup(g);
        for (size_t r = g; r < arr.rows(); r += parity.groups())
            acc ^= arr.cells().readRow(r);
        if (acc.any())
            return false;
    }
    return true;
}

} // namespace tdc::oracle

#endif // TDC_TESTS_ORACLES_TWOD_PARITY_HH
