#include <gtest/gtest.h>

#include "reliability/scrub_model.hh"

namespace tdc
{
namespace
{

ScrubParams
baseParams(double interval_hours)
{
    ScrubParams p;
    p.words = 2 * 1024 * 1024;
    p.errorsPerHour = 1.28e-3;
    p.scrubIntervalHours = interval_hours;
    return p;
}

TEST(ScrubModel, PerReadCheckingHasNoVulnerabilityWindow)
{
    ScrubModel m(baseParams(0.0));
    EXPECT_DOUBLE_EQ(m.expectedUncorrectable(5 * 8760.0), 0.0);
    EXPECT_DOUBLE_EQ(m.survivalProbability(5 * 8760.0), 1.0);
}

TEST(ScrubModel, DoubleUpsetProbabilityIsSecondOrder)
{
    ScrubModel m(baseParams(24.0));
    const double p = m.doubleUpsetProbPerWordPerInterval();
    const double rt = m.params().perWordRate() * 24.0;
    EXPECT_GT(p, 0.0);
    EXPECT_NEAR(p, rt * rt / 2.0, rt * rt); // ~ (rT)^2/2
}

TEST(ScrubModel, LongerIntervalsAreStrictlyWorse)
{
    // The paper's Section 2.1 claim: scrubbing coverage degrades with
    // the interval; per-read checking is the limit case.
    double prev_survival = 1.0;
    for (double interval : {1.0, 24.0, 24.0 * 7, 24.0 * 30}) {
        ScrubModel m(baseParams(interval));
        const double s = m.survivalProbability(5 * 8760.0);
        EXPECT_LT(s, prev_survival) << interval;
        prev_survival = s;
    }
}

TEST(ScrubModel, ExpectedEventsLinearInInterval)
{
    // E[uncorrectable] = N * M * r^2 * T / 2 to first order: doubling
    // T doubles the expected events.
    ScrubModel day(baseParams(24.0));
    ScrubModel two_days(baseParams(48.0));
    const double mission = 8760.0;
    const double e1 = day.expectedUncorrectable(mission);
    const double e2 = two_days.expectedUncorrectable(mission);
    EXPECT_NEAR(e2 / e1, 2.0, 0.01);
}

} // namespace
} // namespace tdc
