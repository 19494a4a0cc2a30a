#include <gtest/gtest.h>

#include "reliability/yield_model.hh"

namespace tdc
{
namespace
{

TEST(YieldParams, Figure8aGeometry)
{
    const YieldParams p = YieldParams::l2Cache16MB();
    EXPECT_EQ(p.words, 2u * 1024 * 1024);
    EXPECT_EQ(p.wordBits, 72u);
    EXPECT_EQ(p.totalBits(), 2ull * 1024 * 1024 * 72);
}

TEST(YieldModel, ZeroFaultsIsPerfectYield)
{
    YieldModel m(YieldParams::l2Cache16MB());
    EXPECT_DOUBLE_EQ(m.yieldSpareOnly(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.yieldEccOnly(0), 1.0);
    EXPECT_DOUBLE_EQ(m.yieldEccPlusSpares(0, 16), 1.0);
}

TEST(YieldModel, ExpectedCountsScaleSensibly)
{
    YieldModel m(YieldParams::l2Cache16MB());
    // With few faults relative to words, nearly all land in distinct
    // words.
    EXPECT_NEAR(m.expectedFaultyWords(1000), 1000.0, 1.0);
    // Multi-fault words are second-order rare.
    EXPECT_LT(m.expectedMultiFaultWords(1000), 1.0);
    EXPECT_GT(m.expectedMultiFaultWords(4000),
              m.expectedMultiFaultWords(1000));
}

TEST(YieldModel, SpareOnlyCollapsesQuickly)
{
    // Figure 8(a): 128 spare rows are exhausted as soon as more than
    // ~128 cells fail anywhere.
    YieldModel m(YieldParams::l2Cache16MB());
    EXPECT_GT(m.yieldSpareOnly(100, 128), 0.95);
    EXPECT_LT(m.yieldSpareOnly(400, 128), 0.01);
    EXPECT_LT(m.yieldSpareOnly(4000, 128), 1e-6);
}

TEST(YieldModel, EccOnlyDegradesGradually)
{
    YieldModel m(YieldParams::l2Cache16MB());
    // E[multi-fault words] ~ F^2 / (2N): ~0.15 at 800 faults, ~3.7 at
    // 4000 -> yield e^-3.7 ~ 2% ("ECC alone has poor yield").
    const double y800 = m.yieldEccOnly(800);
    const double y4000 = m.yieldEccOnly(4000);
    EXPECT_GT(y800, 0.8);
    EXPECT_LT(y4000, y800);
    EXPECT_GT(y4000, 0.005); // degraded gradually, not a cliff
    EXPECT_LT(y4000, 0.10);
}

TEST(YieldModel, EccPlusSparesDominatesEverything)
{
    // The paper's headline for Figure 8(a): ECC + a few spares beats
    // both ECC-only and spares-only across the sweep.
    YieldModel m(YieldParams::l2Cache16MB());
    for (double f : {400.0, 800.0, 1600.0, 3200.0, 4000.0}) {
        const double combo16 = m.yieldEccPlusSpares(f, 16);
        EXPECT_GE(combo16, m.yieldEccOnly(f));
        EXPECT_GE(combo16, m.yieldSpareOnly(f, 128));
        EXPECT_GT(combo16, 0.99) << f;
        EXPECT_GE(m.yieldEccPlusSpares(f, 32), combo16);
    }
}

TEST(YieldModel, YieldIsMonotonicInFaultsAndSpares)
{
    YieldModel m(YieldParams::l2Cache16MB());
    double prev = 1.0;
    for (double f = 0; f <= 4000; f += 500) {
        const double y = m.yieldEccOnly(f);
        EXPECT_LE(y, prev + 1e-12);
        prev = y;
    }
    EXPECT_LE(m.yieldEccPlusSpares(4000, 8),
              m.yieldEccPlusSpares(4000, 16));
}

TEST(YieldModel, MonteCarloAgreesWithAnalytic)
{
    // Use a small array so the Monte Carlo runs fast but collisions
    // still happen.
    YieldParams p;
    p.words = 4096;
    p.wordBits = 72;
    YieldModel m(p);
    const size_t faults = 128;
    const auto mc = m.monteCarloParallel(faults, 4, 400, 1234);
    EXPECT_NEAR(mc.eccOnly, m.yieldEccOnly(double(faults)), 0.08);
    EXPECT_NEAR(mc.eccPlusSpares, m.yieldEccPlusSpares(double(faults), 4),
                0.08);
    EXPECT_NEAR(mc.spareOnly, m.yieldSpareOnly(double(faults), 4), 0.08);
}

} // namespace
} // namespace tdc
