#include <gtest/gtest.h>

#include "reliability/soft_error_model.hh"

namespace tdc
{
namespace
{

TEST(ReliabilityParams, Figure8bSetup)
{
    const ReliabilityParams p = ReliabilityParams::figure8b(0.00001);
    EXPECT_EQ(p.numCaches, 10u);
    EXPECT_DOUBLE_EQ(p.totalMbit(), 1280.0);
    // 1280 Mb * 1000 FIT/Mb = 1.28e6 FIT = 1.28e-3 errors/hour.
    EXPECT_NEAR(p.softErrorsPerHour(), 1.28e-3, 1e-9);
}

TEST(SoftErrorModel, FaultyWordFractionScalesWithHer)
{
    SoftErrorModel lo(ReliabilityParams::figure8b(0.000005));
    SoftErrorModel hi(ReliabilityParams::figure8b(0.00005));
    EXPECT_NEAR(lo.faultyWordFraction(), 72 * 0.000005, 1e-6);
    EXPECT_GT(hi.faultyWordFraction(), 9.0 * lo.faultyWordFraction());
}

TEST(SoftErrorModel, ExpectedSoftErrorsPerYear)
{
    SoftErrorModel m(ReliabilityParams::figure8b(0.00001));
    // 1.28e-3 per hour * 8760 hours = ~11.2 soft errors / year.
    EXPECT_NEAR(m.expectedSoftErrors(1.0), 11.2, 0.1);
    EXPECT_NEAR(m.expectedSoftErrors(5.0), 56.1, 0.3);
}

TEST(SoftErrorModel, SuccessDecaysWithTime)
{
    SoftErrorModel m(ReliabilityParams::figure8b(0.00005));
    double prev = 1.0;
    for (double years = 0; years <= 5.0; years += 1.0) {
        const double p = m.successProbability(years);
        EXPECT_LE(p, prev + 1e-12);
        EXPECT_GT(p, 0.0);
        prev = p;
    }
    EXPECT_DOUBLE_EQ(m.successProbability(0.0), 1.0);
}

TEST(SoftErrorModel, HigherHardErrorRateIsWorse)
{
    // Figure 8(b): the HER=0.005% curve decays fastest.
    SoftErrorModel her1(ReliabilityParams::figure8b(0.000005));
    SoftErrorModel her2(ReliabilityParams::figure8b(0.00001));
    SoftErrorModel her3(ReliabilityParams::figure8b(0.00005));
    const double y = 5.0;
    EXPECT_GT(her1.successProbability(y), her2.successProbability(y));
    EXPECT_GT(her2.successProbability(y), her3.successProbability(y));
    // The worst curve loses meaningful reliability within 5 years.
    EXPECT_LT(her3.successProbability(y), 0.95);
}

TEST(SoftErrorModel, TwoDimCodingStaysPerfect)
{
    SoftErrorModel m(ReliabilityParams::figure8b(0.00005));
    for (double years = 0; years <= 5.0; years += 0.5)
        EXPECT_DOUBLE_EQ(m.successProbabilityWith2D(years), 1.0);
    // And strictly beats the no-2D deployment at every horizon > 0.
    EXPECT_GT(m.successProbabilityWith2D(5.0),
              m.successProbability(5.0));
}

} // namespace
} // namespace tdc
