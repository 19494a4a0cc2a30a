#include <gtest/gtest.h>

#include "vlsi/sram_model.hh"

namespace tdc
{
namespace
{

TEST(SramModel, GeometryAccounting)
{
    // 64kB of 64-bit data words with (72,64) codewords, 4-way.
    SramModel model(8192, 72, 4);
    EXPECT_EQ(model.totalRows(), 2048u);
    EXPECT_EQ(model.rowBits(), 288u);
    EXPECT_FALSE(model.candidates().empty());
}

TEST(SramModel, MetricsArePositive)
{
    SramModel model(8192, 72, 4);
    for (const SramOrg &org : model.candidates()) {
        const SramMetrics m = model.evaluate(org);
        EXPECT_GT(m.delay, 0.0);
        EXPECT_GT(m.readEnergy, 0.0);
        EXPECT_GT(m.area, 0.0);
    }
}

TEST(SramModel, ObjectivesAchieveTheirGoal)
{
    SramModel model(16384, 266, 2);
    const SramMetrics d = model.optimize(SramObjective::kDelay);
    const SramMetrics p = model.optimize(SramObjective::kPower);
    // The delay-optimal point cannot be slower than the power-optimal
    // point and vice versa.
    EXPECT_LE(d.delay, p.delay);
    EXPECT_LE(p.readEnergy, d.readEnergy);
}

TEST(SramModel, EnergyGrowsWithInterleaving)
{
    // Figure 2(b)/(c): read energy increases with interleave degree
    // under every objective.
    for (SramObjective obj :
         {SramObjective::kDelay, SramObjective::kPower,
          SramObjective::kDelayArea, SramObjective::kBalanced}) {
        double prev = 0.0;
        for (size_t d = 1; d <= 16; d *= 2) {
            SramModel model(8192, 72, d);
            const double e = model.optimize(obj).readEnergy;
            EXPECT_GT(e, prev) << "objective " << int(obj) << " d=" << d;
            prev = e;
        }
    }
}

TEST(SramModel, WideWordArrayPaysMoreForInterleaving)
{
    // The 4MB cache's 256-bit words make interleaving relatively more
    // expensive than the 64kB cache's 64-bit words (Figure 2(c) vs
    // 2(b)).
    auto relative_growth = [](size_t words, size_t cw) {
        SramModel base(words, cw, 1);
        SramModel deep(words, cw, 8);
        const double e0 =
            base.optimize(SramObjective::kBalanced).readEnergy;
        const double e8 =
            deep.optimize(SramObjective::kBalanced).readEnergy;
        return e8 / e0;
    };
    const double l1_growth = relative_growth(8192, 72);
    const double l2_growth = relative_growth(16384, 266);
    EXPECT_GT(l2_growth, l1_growth);
}

TEST(SramModel, PowerOptSpendsAreaToSaveEnergy)
{
    SramModel model(16384, 266, 8);
    const SramMetrics p = model.optimize(SramObjective::kPower);
    const SramMetrics da = model.optimize(SramObjective::kDelayArea);
    EXPECT_LE(p.readEnergy, da.readEnergy);
    // and typically pays for it in area (segmentation adds sense amps)
    EXPECT_GE(p.area, da.area * 0.99);
}

TEST(SramModel, BankingReducesNothingButArea)
{
    // cacheArrayMetrics: one activated bank determines energy/delay;
    // area sums over banks.
    const SramMetrics one =
        cacheArrayMetrics(1 << 20, 256, 10, 2, 1,
                          SramObjective::kBalanced);
    const SramMetrics eight =
        cacheArrayMetrics(8 << 20, 256, 10, 2, 8,
                          SramObjective::kBalanced);
    EXPECT_NEAR(eight.readEnergy, one.readEnergy, 1e-9);
    EXPECT_NEAR(eight.area, 8.0 * one.area, 1e-6);
}

TEST(SramModel, CheckBitsIncreaseEnergyProportionally)
{
    const SramMetrics plain =
        cacheArrayMetrics(64 * 1024, 64, 0, 2, 1,
                          SramObjective::kBalanced);
    const SramMetrics secded =
        cacheArrayMetrics(64 * 1024, 64, 8, 2, 1,
                          SramObjective::kBalanced);
    const SramMetrics oecned =
        cacheArrayMetrics(64 * 1024, 64, 57, 2, 1,
                          SramObjective::kBalanced);
    EXPECT_GT(secded.readEnergy, plain.readEnergy);
    EXPECT_GT(oecned.readEnergy, secded.readEnergy);
    // 57 extra bits on 64 must cost visibly more than 8 extra bits.
    const double secded_extra = secded.readEnergy / plain.readEnergy - 1;
    const double oecned_extra = oecned.readEnergy / plain.readEnergy - 1;
    EXPECT_GT(oecned_extra, 3.0 * secded_extra);
}

} // namespace
} // namespace tdc
