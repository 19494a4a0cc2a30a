/**
 * @file
 * Synthetic per-core instruction stream driven by a WorkloadProfile.
 */

#ifndef TDC_WORKLOAD_INSTRUCTION_STREAM_HH
#define TDC_WORKLOAD_INSTRUCTION_STREAM_HH

#include <cstdint>

#include "common/rng.hh"
#include "workload/workload_profile.hh"

namespace tdc
{

/** One synthetic instruction as seen by the cache hierarchy. */
struct SyntheticInstr
{
    enum class Kind
    {
        kNonMem,
        kLoad,
        kStore,
    };

    Kind kind = Kind::kNonMem;

    /** Instruction-fetch misses the L1I (goes to L2). */
    bool ifetchMiss = false;

    /** For loads/stores: the data access misses the L1D. */
    bool l1dMiss = false;

    /** For L1D misses: the refill also misses the L2. */
    bool l2Miss = false;

    /** For L1D misses: the victim line is dirty (write-back to L2). */
    bool dirtyEvict = false;

    /** For L1D misses: served by dirty data in a peer core's L1. */
    bool dirtyShared = false;

    /** Uniform hash used to pick an L2 bank. */
    uint32_t bankHash = 0;

    /** Most bubbles one instruction carries. */
    static constexpr unsigned kMaxBubbles = 4;

    /** Dead issue slots preceding this instruction (ILP stalls),
     *  0..kMaxBubbles. */
    unsigned bubbles = 0;
};

/**
 * Stochastic instruction generator with two-state Markov burstiness.
 * Each core (or hardware thread) owns one stream seeded
 * independently, so runs are reproducible and baseline/protected
 * simulations can be paired sample-by-sample (the matched-pair
 * methodology the paper borrows from SimFlex).
 *
 * Every probability of the profile is turned into its 53-bit integer
 * threshold once, at construction (Rng::nextBelow53): each draw then
 * makes exactly the decision a floating-point nextBool would, from
 * the same number of draws.
 */
class InstructionStream
{
  public:
    InstructionStream(const WorkloadProfile &profile, uint64_t seed);

    /** Generate the next instruction. */
    SyntheticInstr next();

    /** Whether the stream is currently in its bursty phase. */
    bool bursty() const { return inBurst; }

  private:
    /** Load/store split of one burst phase, as thresholds of one
     *  uniform draw: load below `load`, store below `loadOrStore`. */
    struct MixThresholds
    {
        uint64_t load = 0;
        uint64_t loadOrStore = 0;
    };

    Rng rng;
    bool inBurst = false;

    /** bernoulliThreshold of each profile probability. */
    uint64_t burstOn;
    uint64_t burstOff;
    uint64_t l1iMiss;
    uint64_t ilpBubble;
    uint64_t bubbleGrow; ///< a bubble run grows by one more (p = 0.45)
    uint64_t l1dMiss;
    uint64_t l2Miss;
    uint64_t dirtyEvict;
    uint64_t dirtyShared;
    MixThresholds calmMix;
    MixThresholds burstMix;
};

} // namespace tdc

#endif // TDC_WORKLOAD_INSTRUCTION_STREAM_HH
