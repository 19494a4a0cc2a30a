#include "common/bit_span.hh"

#include <bit>

#include "common/cpu_features.hh"

namespace tdc
{

BitCompressPlan::BitCompressPlan(uint64_t mask)
    : selectMask(mask), bitCount(unsigned(std::popcount(mask)))
{
    // Hacker's Delight 7-4: derive the butterfly stage masks. Stage i
    // moves the selected bits that still have to cross a distance of
    // 2^i; the masks depend only on the select mask, so they are
    // computed once here and replayed per word in compress()/expand().
    uint64_t m = mask;
    uint64_t mk = ~m << 1; // bits to the left of each selected bit
    for (unsigned i = 0; i < stages; ++i) {
        uint64_t mp = mk ^ (mk << 1); // parallel prefix of mk
        mp ^= mp << 2;
        mp ^= mp << 4;
        mp ^= mp << 8;
        mp ^= mp << 16;
        mp ^= mp << 32;
        const uint64_t mv = mp & m; // bits moving this stage
        moveMasks[i] = mv;
        m = (m ^ mv) | (mv >> (1u << i));
        mk &= ~mp;
    }
}

uint64_t
BitCompressPlan::compress(uint64_t x) const
{
    if (simdBmi2Active())
        return simd::pextBmi2(x, selectMask);
    x &= selectMask;
    for (unsigned i = 0; i < stages; ++i) {
        const uint64_t t = x & moveMasks[i];
        x = (x ^ t) | (t >> (1u << i));
    }
    return x;
}

uint64_t
BitCompressPlan::expand(uint64_t x) const
{
    if (simdBmi2Active())
        return simd::pdepBmi2(x, selectMask);
    if (bitCount < 64)
        x &= (uint64_t(1) << bitCount) - 1;
    // Replay the butterfly in reverse to scatter the low bits back to
    // their mask positions (Hacker's Delight 7-5).
    for (unsigned i = stages; i-- > 0;) {
        const uint64_t mv = moveMasks[i];
        const uint64_t t = x << (1u << i);
        x = (x & ~mv) | (t & mv);
    }
    return x & selectMask;
}

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
