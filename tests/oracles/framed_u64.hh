/**
 * @file
 * The framed 64-bit field the pinned test digests are recorded with:
 * a tag byte 'u', then the value as 8 little-endian bytes, fed
 * through StableHash::updateBytes.
 */

#ifndef TDC_TESTS_ORACLES_FRAMED_U64_HH
#define TDC_TESTS_ORACLES_FRAMED_U64_HH

#include <cstdint>

#include "common/stable_hash.hh"

namespace tdc::oracle
{

/** Feed @p v into @p h as one framed 64-bit field. */
inline void
updateU64(StableHash &h, uint64_t v)
{
    unsigned char bytes[9];
    bytes[0] = 'u';
    for (int i = 0; i < 8; ++i)
        bytes[1 + i] = (unsigned char)(v >> (8 * i));
    h.updateBytes(bytes, 9);
}

} // namespace tdc::oracle

#endif // TDC_TESTS_ORACLES_FRAMED_U64_HH
