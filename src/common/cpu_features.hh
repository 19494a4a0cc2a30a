/**
 * @file
 * Runtime CPU feature probe and SIMD codec backend dispatch.
 *
 * The codec substrate keeps one scalar implementation per kernel (the
 * PR 2-3 word-parallel paths, retained as differential-test oracles)
 * and layers hardware fast paths behind the same APIs: BMI2
 * PEXT/PDEP for the interleave gather/scatter, AVX2 for the wide XOR
 * folds of the EDC and line codecs, and the unrolled table folds plus
 * the closed-form quartic BCH locator on any accelerated tier. Which
 * tier runs is decided once at startup from CPUID, overridable with
 * `TDC_SIMD=scalar|bmi2|avx2` (for CI matrices and reproducing the
 * scalar trajectory) or programmatically via setSimdBackend() (for
 * differential tests and benchmarks).
 *
 * Every backend is bit-identical by construction — campaign, figure
 * and service outputs must not depend on the backend (or on
 * TDC_THREADS); the suites under tests/common and tests/ecc enforce
 * it kernel by kernel.
 */

#ifndef TDC_COMMON_CPU_FEATURES_HH
#define TDC_COMMON_CPU_FEATURES_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace tdc
{

/** Instruction-set features the codec kernels can exploit. */
struct CpuFeatures
{
    bool bmi2 = false;    ///< PEXT/PDEP
    bool avx2 = false;    ///< 256-bit integer SIMD (and OS YMM state)
};

/** Features of the machine we are running on (probed once). */
const CpuFeatures &cpuFeatures();

/**
 * Codec backend tiers, ordered: each tier includes the previous ones'
 * fast paths. kBmi2 turns on the PEXT/PDEP interleave paths, the
 * unrolled table folds and the deg-4 closed-form BCH locator; kAvx2
 * additionally vectorizes the wide XOR folds.
 */
enum class SimdBackend
{
    kScalar = 0,
    kBmi2 = 1,
    kAvx2 = 2,
};

/** Short lowercase name ("scalar", "bmi2", "avx2"). */
const char *simdBackendName(SimdBackend backend);

/** Parse a backend name; std::nullopt when unrecognized. */
std::optional<SimdBackend> parseSimdBackend(const std::string &name);

/** Highest tier this CPU supports. */
SimdBackend bestSimdBackend();

/**
 * The backend requested via TDC_SIMD, before clamping; std::nullopt
 * when the variable is unset or unrecognized (auto-dispatch).
 */
std::optional<SimdBackend> requestedSimdBackend();

/**
 * Select the backend for subsequent codec calls, clamped to what the
 * CPU supports; returns the backend actually in effect. Like
 * setParallelThreads this is a test/benchmark hook: call it only
 * between campaigns, not while worker threads are decoding.
 */
SimdBackend setSimdBackend(SimdBackend backend);

namespace detail
{
/** -1 = not resolved yet; otherwise a SimdBackend value. */
extern std::atomic<int> simdBackendState;
SimdBackend resolveSimdBackend();
} // namespace detail

/**
 * The backend in effect: TDC_SIMD when set to a valid name (clamped
 * to bestSimdBackend()), otherwise the best supported tier. Resolved
 * once, then a relaxed atomic load — cheap enough for per-call
 * dispatch in the word-level kernels.
 */
inline SimdBackend
activeSimdBackend()
{
    const int v = detail::simdBackendState.load(std::memory_order_relaxed);
    if (v >= 0)
        return SimdBackend(v);
    return detail::resolveSimdBackend();
}

/** True iff the BMI2 (or higher) fast paths are selected. */
inline bool
simdBmi2Active()
{
    return activeSimdBackend() >= SimdBackend::kBmi2;
}

/** True iff the AVX2 fast paths are selected. */
inline bool
simdAvx2Active()
{
    return activeSimdBackend() >= SimdBackend::kAvx2;
}

namespace simd
{

/**
 * Hardware kernels. Call only when the matching tier is active —
 * activeSimdBackend() never reports a tier the CPU cannot execute, so
 * the dispatch guards above are sufficient. (Off x86 they fall back
 * to slow software equivalents so a stray call is still correct.)
 */

/** BMI2 PEXT: gather the bits of @p x selected by @p mask. */
uint64_t pextBmi2(uint64_t x, uint64_t mask);

/** BMI2 PDEP: scatter the low bits of @p x to the @p mask positions. */
uint64_t pdepBmi2(uint64_t x, uint64_t mask);

/** AVX2 XOR fold of @p nwords 64-bit words (any alignment). */
uint64_t xorFoldAvx2(const uint64_t *words, size_t nwords);

} // namespace simd

/**
 * RAII guard for tests/benchmarks: forces a backend in its scope and
 * restores the previous one on destruction.
 */
class ScopedSimdBackend
{
  public:
    explicit ScopedSimdBackend(SimdBackend backend)
        : previous(activeSimdBackend())
    {
        setSimdBackend(backend);
    }
    ~ScopedSimdBackend() { setSimdBackend(previous); }

    ScopedSimdBackend(const ScopedSimdBackend &) = delete;
    ScopedSimdBackend &operator=(const ScopedSimdBackend &) = delete;

  private:
    SimdBackend previous;
};

} // namespace tdc

#endif // TDC_COMMON_CPU_FEATURES_HH
