/**
 * @file
 * Contract of the runtime CPU probe and SIMD backend dispatch layer:
 * name/parse round trips, tier ordering against the probed features,
 * clamping of requests the CPU cannot honor, scoped overrides, and
 * bit-exactness of the hardware kernels against software references.
 */

#include <gtest/gtest.h>

#include "common/cpu_features.hh"
#include "common/rng.hh"
#include "scoped_env.hh"

namespace tdc
{
namespace
{

/** Software PEXT: gather the bits of @p x selected by @p mask. */
uint64_t
refPext(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    unsigned j = 0;
    for (unsigned i = 0; i < 64; ++i) {
        if ((mask >> i) & 1)
            out |= uint64_t((x >> i) & 1) << j++;
    }
    return out;
}

/** Software PDEP: scatter the low bits of @p x to the mask positions. */
uint64_t
refPdep(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    unsigned j = 0;
    for (unsigned i = 0; i < 64; ++i) {
        if ((mask >> i) & 1)
            out |= uint64_t((x >> j++) & 1) << i;
    }
    return out;
}

TEST(CpuFeatures, BackendNamesRoundTripThroughParse)
{
    for (SimdBackend b : {SimdBackend::kScalar, SimdBackend::kBmi2}) {
        const auto parsed = parseSimdBackend(simdBackendName(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_FALSE(parseSimdBackend("").has_value());
    EXPECT_FALSE(parseSimdBackend("sse2").has_value());
    EXPECT_FALSE(parseSimdBackend("BMI2").has_value());
    // The retired AVX2 tier is no longer a backend name.
    EXPECT_FALSE(parseSimdBackend("avx2").has_value());
}

TEST(CpuFeatures, RequestedBackendReadsTheEnvironment)
{
    {
        ScopedEnv env("TDC_SIMD", "scalar");
        EXPECT_EQ(requestedSimdBackend(), SimdBackend::kScalar);
    }
    {
        ScopedEnv env("TDC_SIMD", "bmi2");
        EXPECT_EQ(requestedSimdBackend(), SimdBackend::kBmi2);
    }
    // A name that is no backend (the retired "avx2" among them)
    // throws, quoting the variable and the value, instead of running
    // the auto-dispatched tier under a label the caller did not ask
    // for.
    expectEnvRejected("TDC_SIMD", {"avx2", "scaler", "BMI2", ""},
                      [] { requestedSimdBackend(); });
    ScopedEnv env("TDC_SIMD", "scalar");
    unsetenv("TDC_SIMD"); // restored by env on exit
    EXPECT_EQ(requestedSimdBackend(), std::nullopt);
}

TEST(CpuFeatures, BestBackendIsConsistentWithProbedFeatures)
{
    const CpuFeatures &f = cpuFeatures();
    const SimdBackend best = bestSimdBackend();
    EXPECT_EQ(best, f.bmi2 ? SimdBackend::kBmi2 : SimdBackend::kScalar);
}

TEST(CpuFeatures, SetBackendClampsToTheSupportedTier)
{
    const SimdBackend before = activeSimdBackend();
    const SimdBackend best = bestSimdBackend();

    EXPECT_EQ(setSimdBackend(SimdBackend::kScalar), SimdBackend::kScalar);
    EXPECT_EQ(activeSimdBackend(), SimdBackend::kScalar);
    EXPECT_FALSE(simdBmi2Active());

    // An over-ambitious request lands on the best supported tier, never
    // above it.
    EXPECT_EQ(setSimdBackend(SimdBackend::kBmi2), best);
    EXPECT_LE(int(activeSimdBackend()), int(best));

    setSimdBackend(before);
}

TEST(CpuFeatures, ScopedOverrideRestoresThePreviousBackend)
{
    const SimdBackend before = activeSimdBackend();
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        EXPECT_EQ(activeSimdBackend(), SimdBackend::kScalar);
        {
            ScopedSimdBackend inner(SimdBackend::kBmi2);
            EXPECT_LE(int(activeSimdBackend()), int(bestSimdBackend()));
        }
        EXPECT_EQ(activeSimdBackend(), SimdBackend::kScalar);
    }
    EXPECT_EQ(activeSimdBackend(), before);
}

TEST(CpuFeatures, PextPdepKernelsMatchSoftwareReference)
{
    if (!cpuFeatures().bmi2)
        GTEST_SKIP() << "no BMI2 on this machine";
    Rng rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        const uint64_t x = rng.next();
        const uint64_t mask = rng.next() & rng.next(); // sparse-ish
        EXPECT_EQ(simd::pextBmi2(x, mask), refPext(x, mask));
        EXPECT_EQ(simd::pdepBmi2(x, mask), refPdep(x, mask));
    }
    const uint64_t edgeMasks[] = {0,
                                  ~uint64_t(0),
                                  0xAAAAAAAAAAAAAAAAULL,
                                  0x5555555555555555ULL,
                                  0x00000000FFFFFFFFULL,
                                  0xFFFFFFFF00000000ULL,
                                  1,
                                  uint64_t(1) << 63};
    for (uint64_t mask : edgeMasks) {
        const uint64_t x = 0xDEADBEEFCAFEF00DULL;
        EXPECT_EQ(simd::pextBmi2(x, mask), refPext(x, mask));
        EXPECT_EQ(simd::pdepBmi2(x, mask), refPdep(x, mask));
    }
}

} // namespace
} // namespace tdc
