/**
 * @file
 * Runtime CPU feature probe and SIMD codec backend dispatch.
 *
 * The dispatch layer makes one choice, and only because it depends
 * on the hardware: BitCompressPlan's interleave gather/scatter runs
 * as BMI2 PEXT/PDEP or as the six-stage software butterfly. Every
 * other codec fast path is portable C++ and runs on every CPU. Which
 * tier runs is decided once at startup from CPUID, overridable with
 * `TDC_SIMD=scalar|bmi2` (for CI matrices) or programmatically via
 * setSimdBackend() (for differential tests and benchmarks).
 *
 * Both tiers are bit-identical by construction — campaign, figure
 * and service outputs must not depend on the tier (or on
 * TDC_THREADS); tests/common/simd_diff_test.cc holds the butterfly
 * and PEXT/PDEP to each other.
 */

#ifndef TDC_COMMON_CPU_FEATURES_HH
#define TDC_COMMON_CPU_FEATURES_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace tdc
{

/** Instruction-set features the codec kernels can exploit. */
struct CpuFeatures
{
    bool bmi2 = false;    ///< PEXT/PDEP
};

/** Features of the machine we are running on (probed once). */
const CpuFeatures &cpuFeatures();

/**
 * Codec backend tiers, ordered. kBmi2 runs the interleave
 * gather/scatter as PEXT/PDEP; kScalar runs the software butterfly.
 */
enum class SimdBackend
{
    kScalar = 0,
    kBmi2 = 1,
};

/** Short lowercase name ("scalar", "bmi2"). */
const char *simdBackendName(SimdBackend backend);

/** Parse a backend name; std::nullopt when unrecognized. */
std::optional<SimdBackend> parseSimdBackend(const std::string &name);

/** Highest tier this CPU supports. */
SimdBackend bestSimdBackend();

/**
 * The backend requested via TDC_SIMD, before clamping; std::nullopt
 * when the variable is unset (auto-dispatch).
 * @throws std::invalid_argument (quoting the value) unless it names a
 *         backend
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
 * The backend in effect: TDC_SIMD when set (clamped to
 * bestSimdBackend()), otherwise the best supported tier. Resolved
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

/** True iff the PEXT/PDEP interleave paths are selected. */
inline bool
simdBmi2Active()
{
    return activeSimdBackend() >= SimdBackend::kBmi2;
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
