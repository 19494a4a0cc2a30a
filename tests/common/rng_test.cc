#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"

namespace tdc
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(7), 7u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(6);
    int seen[5] = {};
    for (int i = 0; i < 1000; ++i)
        ++seen[rng.nextBelow(5)];
    for (int count : seen)
        EXPECT_GT(count, 100); // ~200 expected per bucket
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMean)
{
    Rng rng(10);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += rng.nextExponential(2.0);
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

} // namespace
} // namespace tdc
