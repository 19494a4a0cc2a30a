/**
 * The integer Bernoulli test the instruction streams use
 * (Rng::nextBelow53 with bernoulliThreshold) must make the same
 * decision as the floating-point Rng::nextBool on every draw, for
 * every probability a stream draws with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "workload/workload_profile.hh"

namespace tdc
{
namespace
{

/** Every probability an InstructionStream draws with, plus edges. */
std::vector<double>
probabilities()
{
    std::vector<double> base = {0.0, 0x1.0p-53, 0.45, 1.0};
    for (const WorkloadProfile &w : standardWorkloads()) {
        for (const double p :
             {w.loadFrac, w.storeFrac, w.l1iMissRate, w.l1dMissRate,
              w.l2MissRate, w.dirtyEvictFrac, w.dirtySharedFrac,
              w.ilpBubbleProb, w.burstOnProb, w.burstOffProb})
            base.push_back(p);
        // The load/store split of the calm and the bursty phase.
        for (const double boost : {1.0, w.burstLoadBoost}) {
            const double load_p = std::min(0.9, w.loadFrac * boost);
            const double store_p =
                std::min(0.9 - load_p, w.storeFrac * boost);
            base.push_back(load_p);
            base.push_back(load_p + store_p);
        }
    }
    std::vector<double> all;
    for (const double p : base) {
        all.push_back(p);
        all.push_back(std::nextafter(p, 0.0));
        all.push_back(std::nextafter(p, 1.0));
    }
    return all;
}

TEST(BernoulliThreshold, EdgeValues)
{
    EXPECT_EQ(bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(bernoulliThreshold(-0.5), 0u);
    EXPECT_EQ(bernoulliThreshold(std::nan("")), 0u);
    EXPECT_EQ(bernoulliThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(bernoulliThreshold(0x1.0p-60), 1u);
    EXPECT_EQ(bernoulliThreshold(0.5), uint64_t(1) << 52);
    EXPECT_EQ(bernoulliThreshold(1.0), uint64_t(1) << 53);
    EXPECT_EQ(bernoulliThreshold(2.0), uint64_t(1) << 53);
}

TEST(BernoulliThreshold, BoundaryMatchesNextDouble)
{
    // nextDouble() is u * 2^-53 for u = next() >> 11; around each
    // threshold the integer and the floating-point test must agree.
    for (const double p : probabilities()) {
        const uint64_t t = bernoulliThreshold(p);
        for (const uint64_t u : {t - 1, t, t + 1}) {
            if (u >= uint64_t(1) << 53)
                continue;
            EXPECT_EQ(double(u) * 0x1.0p-53 < p, u < t)
                << "p=" << p << " u=" << u;
        }
    }
}

TEST(BernoulliThreshold, TwinGeneratorsDecideAlike)
{
    uint64_t seed = 1;
    for (const double p : probabilities()) {
        const uint64_t t = bernoulliThreshold(p);
        Rng integer(seed);
        Rng floating(seed);
        ++seed;
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(integer.nextBelow53(t), floating.nextBool(p))
                << "p=" << p << " draw " << i;
    }
}

} // namespace
} // namespace tdc
