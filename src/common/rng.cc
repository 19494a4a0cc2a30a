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

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    assert(lo <= hi);
    return lo + int64_t(nextBelow(uint64_t(hi - lo) + 1));
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
Rng::nextPoisson(double mean)
{
    assert(mean >= 0.0);
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's product-of-uniforms method.
        const double threshold = std::exp(-mean);
        uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= nextDouble();
        } while (p > threshold);
        return k - 1;
    }
    // Normal approximation with continuity correction for large means;
    // accurate enough for the reliability models that use it.
    const double g = nextGaussian();
    const double v = mean + g * std::sqrt(mean) + 0.5;
    return v <= 0.0 ? 0 : uint64_t(v);
}

double
Rng::nextGaussian()
{
    if (haveSpareGaussian) {
        haveSpareGaussian = false;
        return spareGaussian;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian = v * scale;
    haveSpareGaussian = true;
    return u * scale;
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
