/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * A self-contained xoshiro256** implementation so that every experiment
 * in the repository is reproducible bit-for-bit across platforms and
 * standard-library versions (std::mt19937 distributions are not
 * portable across implementations).
 */

#ifndef TDC_COMMON_RNG_HH
#define TDC_COMMON_RNG_HH

#include <cstdint>

namespace tdc
{

/**
 * xoshiro256** generator with SplitMix64 seeding.
 *
 * All simulation components draw randomness through this class so a
 * single seed fully determines an experiment.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x2d2d2d2d5eedULL);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform double in [0, 1): the top 53 bits of next(), scaled. */
    double nextDouble() { return double(next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Integer form of nextBool(p) for a probability used many times:
     * with t = bernoulliThreshold(p), nextBelow53(t) makes the same
     * decision as nextBool(p) on every draw. nextDouble() is exactly
     * u * 2^-53 for the 53-bit integer u = next() >> 11, so
     * u * 2^-53 < p holds iff u < p * 2^53, iff u < ceil(p * 2^53).
     */
    bool nextBelow53(uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Exponentially distributed value with rate @p lambda. */
    double nextExponential(double lambda);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

/**
 * The threshold of Rng::nextBelow53 for probability @p p:
 * ceil(p * 2^53), clamped to [0, 2^53] (0 also for NaN, which
 * nextBool never accepts either).
 */
uint64_t bernoulliThreshold(double p);

} // namespace tdc

#endif // TDC_COMMON_RNG_HH
