#include "common/cpu_features.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#define TDC_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define TDC_X86 0
#endif

namespace tdc
{

namespace
{

#if TDC_X86

CpuFeatures
probe()
{
    CpuFeatures f;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        f.bmi2 = (ebx >> 8) & 1;
    return f;
}

#else

CpuFeatures
probe()
{
    return {};
}

#endif // TDC_X86

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = probe();
    return features;
}

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::kScalar:
        return "scalar";
      case SimdBackend::kBmi2:
        return "bmi2";
    }
    return "scalar";
}

std::optional<SimdBackend>
parseSimdBackend(const std::string &name)
{
    if (name == "scalar")
        return SimdBackend::kScalar;
    if (name == "bmi2")
        return SimdBackend::kBmi2;
    return std::nullopt;
}

SimdBackend
bestSimdBackend()
{
    return cpuFeatures().bmi2 ? SimdBackend::kBmi2 : SimdBackend::kScalar;
}

std::optional<SimdBackend>
requestedSimdBackend()
{
    const char *env = std::getenv("TDC_SIMD");
    if (env == nullptr)
        return std::nullopt;
    if (const std::optional<SimdBackend> backend = parseSimdBackend(env))
        return backend;
    throw std::invalid_argument(
        std::string("TDC_SIMD expects scalar|bmi2, got \"") + env + "\"");
}

SimdBackend
setSimdBackend(SimdBackend backend)
{
    const SimdBackend clamped = std::min(backend, bestSimdBackend());
    detail::simdBackendState.store(int(clamped), std::memory_order_relaxed);
    return clamped;
}

namespace detail
{

std::atomic<int> simdBackendState{-1};

SimdBackend
resolveSimdBackend()
{
    // Racing first calls all compute the same value; the store is
    // idempotent.
    const SimdBackend resolved =
        requestedSimdBackend().value_or(bestSimdBackend());
    return setSimdBackend(resolved);
}

} // namespace detail

namespace simd
{

#if TDC_X86

__attribute__((target("bmi2"))) uint64_t
pextBmi2(uint64_t x, uint64_t mask)
{
    return _pext_u64(x, mask);
}

__attribute__((target("bmi2"))) uint64_t
pdepBmi2(uint64_t x, uint64_t mask)
{
    return _pdep_u64(x, mask);
}

#else

// Non-x86 stubs: the dispatcher never selects the BMI2 tier off x86
// (bestSimdBackend() == kScalar), but keep the symbols correct so a
// stray direct call cannot miscompute.

uint64_t
pextBmi2(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    for (uint64_t bit = 1; mask != 0; mask &= mask - 1, bit <<= 1) {
        if (x & mask & -mask)
            out |= bit;
    }
    return out;
}

uint64_t
pdepBmi2(uint64_t x, uint64_t mask)
{
    uint64_t out = 0;
    for (uint64_t bit = 1; mask != 0; mask &= mask - 1, bit <<= 1) {
        if (x & bit)
            out |= mask & -mask;
    }
    return out;
}

#endif // TDC_X86

} // namespace simd

} // namespace tdc
