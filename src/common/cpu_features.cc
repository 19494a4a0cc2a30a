#include "common/cpu_features.hh"

#include <algorithm>
#include <cassert>
#include <cstdlib>

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

/** XCR0 via XGETBV: are the XMM+YMM states OS-enabled? */
__attribute__((target("xsave"))) bool
osSupportsAvx()
{
    // Only called after the caller confirmed OSXSAVE, so the
    // instruction itself is always executable.
    const uint64_t xcr0 = _xgetbv(0);
    return (xcr0 & 0x6) == 0x6; // SSE + AVX state
}

CpuFeatures
probe()
{
    CpuFeatures f;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx >> 27) & 1;
    const bool avx = (ecx >> 28) & 1;
    const bool ymm = osxsave && avx && osSupportsAvx();

    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        f.bmi2 = (ebx7 >> 8) & 1;
        f.avx2 = ymm && ((ebx7 >> 5) & 1);
    }
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
      case SimdBackend::kAvx2:
        return "avx2";
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
    if (name == "avx2")
        return SimdBackend::kAvx2;
    return std::nullopt;
}

SimdBackend
bestSimdBackend()
{
    const CpuFeatures &f = cpuFeatures();
    // The AVX2 tier layers on the BMI2 paths, so it requires both
    // feature bits (true of every AVX2-era core).
    if (f.avx2 && f.bmi2)
        return SimdBackend::kAvx2;
    if (f.bmi2)
        return SimdBackend::kBmi2;
    return SimdBackend::kScalar;
}

std::optional<SimdBackend>
requestedSimdBackend()
{
    const char *env = std::getenv("TDC_SIMD");
    if (env == nullptr)
        return std::nullopt;
    return parseSimdBackend(env);
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

__attribute__((target("avx2"))) uint64_t
xorFoldAvx2(const uint64_t *words, size_t nwords)
{
    __m256i acc = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= nwords; i += 4) {
        acc = _mm256_xor_si256(
            acc,
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(words + i)));
    }
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i x = _mm_xor_si128(lo, hi);
    uint64_t out = uint64_t(_mm_cvtsi128_si64(x)) ^
                   uint64_t(_mm_extract_epi64(x, 1));
    for (; i < nwords; ++i)
        out ^= words[i];
    return out;
}

#else

// Non-x86 stubs: the dispatcher never selects these tiers off x86
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

uint64_t
xorFoldAvx2(const uint64_t *words, size_t nwords)
{
    uint64_t out = 0;
    for (size_t i = 0; i < nwords; ++i)
        out ^= words[i];
    return out;
}

#endif // TDC_X86

} // namespace simd

} // namespace tdc
