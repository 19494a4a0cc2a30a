/**
 * @file
 * Regression for non-dividing interleave degrees (i3): once served by
 * the per-bit fallback, now by the word kernel's phase walk. The specs
 * must keep parsing and round-tripping, and the recovery machinery
 * must behave.
 */

#include <gtest/gtest.h>

#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

TEST(InterleaveI3, ConvSpecRoundTripsAndRecoversOnEveryBackend)
{
    const SchemePtr scheme = parseScheme("conv:secded/i3/r16");
    EXPECT_EQ(scheme->spec(), "conv:secded/i3/r16");

    const InjectionOutcome got =
        scheme->injectAndRecover(parseFaultModel("2x2"), 25, 7);
    EXPECT_EQ(got.trials, 25);
    EXPECT_EQ(got.silent, 0);
    // 2x2 cluster under 3-way interleave: at most one flip per word
    // class pair — SECDED corrects it.
    EXPECT_EQ(got.corrected, 25);
}

TEST(InterleaveI3, TwoDimSpecRoundTripsAndRecovers)
{
    const SchemePtr scheme = parseScheme("2d:edc8/i3+vp8/r16");
    EXPECT_EQ(scheme->spec(), "2d:edc8/i3+vp8/r16");

    const InjectionOutcome got =
        scheme->injectAndRecover(parseFaultModel("3x3"), 25, 11);
    EXPECT_EQ(got.trials, 25);
    EXPECT_EQ(got.silent, 0);
}

} // namespace
} // namespace tdc
