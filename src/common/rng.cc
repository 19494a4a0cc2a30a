#include "common/rng.hh"

#include <cassert>
#include <cmath>

namespace tdc
{

namespace
{

/** SplitMix64 step used to expand the user seed into generator state. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : state)
        s = splitMix64(sm);
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    assert(bound > 0);
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    uint64_t value;
    do {
        value = next();
    } while (value >= limit);
    return value % bound;
}

double
Rng::nextExponential(double lambda)
{
    assert(lambda > 0.0);
    double u;
    do {
        u = nextDouble();
    } while (u == 0.0);
    return -std::log(u) / lambda;
}

uint64_t
bernoulliThreshold(double p)
{
    const double scaled = std::ldexp(p, 53);
    if (!(scaled > 0.0))
        return 0;
    if (scaled >= 0x1.0p53)
        return uint64_t(1) << 53;
    return uint64_t(std::ceil(scaled));
}

} // namespace tdc
