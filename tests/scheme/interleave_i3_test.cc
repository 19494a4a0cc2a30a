/**
 * @file
 * Regression for non-dividing interleave degrees (i3): once served by
 * the per-bit fallback, now by the shared per-phase plan cache. The
 * specs must keep parsing and round-tripping, the recovery machinery
 * must behave, and the outcome must be identical on every dispatch
 * backend (the plans are the layer the BMI2 paths plug into).
 */

#include <gtest/gtest.h>

#include "common/cpu_features.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

TEST(InterleaveI3, ConvSpecRoundTripsAndRecoversOnEveryBackend)
{
    const SchemePtr scheme = parseScheme("conv:secded/i3/r16");
    EXPECT_EQ(scheme->spec(), "conv:secded/i3/r16");

    const FaultModel fault = parseFaultModel("2x2");
    InjectionOutcome ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        ref = scheme->injectAndRecover(fault, 25, 7);
    }
    EXPECT_EQ(ref.trials, 25);
    EXPECT_EQ(ref.silent, 0);
    // 2x2 cluster under 3-way interleave: at most one flip per word
    // class pair — SECDED corrects it.
    EXPECT_EQ(ref.corrected, 25);

    if (bestSimdBackend() >= SimdBackend::kBmi2) {
        ScopedSimdBackend guard(SimdBackend::kBmi2);
        const InjectionOutcome got = scheme->injectAndRecover(fault, 25, 7);
        EXPECT_EQ(got.trials, ref.trials);
        EXPECT_EQ(got.corrected, ref.corrected);
        EXPECT_EQ(got.detectedOnly, ref.detectedOnly);
        EXPECT_EQ(got.silent, ref.silent);
    }
}

TEST(InterleaveI3, TwoDimSpecRoundTripsAndRecovers)
{
    const SchemePtr scheme = parseScheme("2d:edc8/i3+vp8/r16");
    EXPECT_EQ(scheme->spec(), "2d:edc8/i3+vp8/r16");

    const FaultModel fault = parseFaultModel("3x3");
    InjectionOutcome ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        ref = scheme->injectAndRecover(fault, 25, 11);
    }
    EXPECT_EQ(ref.trials, 25);
    EXPECT_EQ(ref.silent, 0);

    if (bestSimdBackend() >= SimdBackend::kBmi2) {
        ScopedSimdBackend guard(SimdBackend::kBmi2);
        const InjectionOutcome got = scheme->injectAndRecover(fault, 25, 11);
        EXPECT_EQ(got.corrected, ref.corrected);
        EXPECT_EQ(got.detectedOnly, ref.detectedOnly);
        EXPECT_EQ(got.silent, ref.silent);
    }
}

} // namespace
} // namespace tdc
