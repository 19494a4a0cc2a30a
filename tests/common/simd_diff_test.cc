/**
 * @file
 * Differential suite for the dispatched interleave primitives: every
 * BitCompressPlan operation must produce identical bits on the scalar
 * (butterfly) tier and on every hardware tier this machine offers,
 * over random masks and the adversarial patterns (empty, full,
 * alternating, half, single-bit, stride) that stress the butterfly
 * stages hardest.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bit_span.hh"
#include "common/cpu_features.hh"
#include "common/rng.hh"

namespace tdc
{
namespace
{

std::vector<SimdBackend>
availableBackends()
{
    std::vector<SimdBackend> out = {SimdBackend::kScalar};
    if (bestSimdBackend() >= SimdBackend::kBmi2)
        out.push_back(SimdBackend::kBmi2);
    return out;
}

std::vector<uint64_t>
adversarialMasks()
{
    std::vector<uint64_t> masks = {
        0,
        ~uint64_t(0),
        0xAAAAAAAAAAAAAAAAULL,
        0x5555555555555555ULL,
        0x00000000FFFFFFFFULL,
        0xFFFFFFFF00000000ULL,
        0x8000000000000001ULL,
        0x0F0F0F0F0F0F0F0FULL,
        0xFF00FF00FF00FF00ULL,
    };
    for (unsigned i = 0; i < 64; ++i)
        masks.push_back(uint64_t(1) << i);
    for (unsigned stride = 1; stride <= 64; ++stride)
        masks.push_back(strideMask64(stride));
    return masks;
}

TEST(SimdDiff, CompressMatchesScalarOnEveryBackend)
{
    Rng rng(21);
    std::vector<uint64_t> masks = adversarialMasks();
    for (int i = 0; i < 200; ++i)
        masks.push_back(rng.next() & rng.next());

    for (uint64_t mask : masks) {
        const BitCompressPlan plan(mask);
        for (int trial = 0; trial < 16; ++trial) {
            const uint64_t x = rng.next();
            uint64_t ref;
            {
                ScopedSimdBackend scalar(SimdBackend::kScalar);
                ref = plan.compress(x);
            }
            for (SimdBackend b : availableBackends()) {
                ScopedSimdBackend guard(b);
                EXPECT_EQ(plan.compress(x), ref)
                    << "mask=" << std::hex << mask << " backend="
                    << simdBackendName(b);
            }
        }
    }
}

TEST(SimdDiff, ExpandMatchesScalarOnEveryBackend)
{
    Rng rng(22);
    std::vector<uint64_t> masks = adversarialMasks();
    for (int i = 0; i < 200; ++i)
        masks.push_back(rng.next() | rng.next());

    for (uint64_t mask : masks) {
        const BitCompressPlan plan(mask);
        for (int trial = 0; trial < 16; ++trial) {
            const uint64_t x = rng.next();
            uint64_t ref;
            {
                ScopedSimdBackend scalar(SimdBackend::kScalar);
                ref = plan.expand(x);
            }
            for (SimdBackend b : availableBackends()) {
                ScopedSimdBackend guard(b);
                EXPECT_EQ(plan.expand(x), ref)
                    << "mask=" << std::hex << mask << " backend="
                    << simdBackendName(b);
            }
        }
    }
}

TEST(SimdDiff, CompressExpandRoundTripUnderEveryBackend)
{
    Rng rng(23);
    for (SimdBackend b : availableBackends()) {
        ScopedSimdBackend guard(b);
        for (int trial = 0; trial < 500; ++trial) {
            const uint64_t mask = rng.next();
            const BitCompressPlan plan(mask);
            const uint64_t x = rng.next();
            // expand(compress(x)) reproduces exactly the masked bits.
            EXPECT_EQ(plan.expand(plan.compress(x)), x & mask);
        }
    }
}

} // namespace
} // namespace tdc
