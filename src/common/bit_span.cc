#include "common/bit_span.hh"

namespace tdc
{

uint64_t
strideMask64(size_t stride)
{
    assert(stride >= 1 && stride <= 64);
    uint64_t mask = 0;
    for (size_t p = 0; p < 64; p += stride)
        mask |= uint64_t(1) << p;
    return mask;
}

} // namespace tdc
