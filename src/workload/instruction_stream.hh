/**
 * @file
 * Synthetic per-core instruction stream driven by a WorkloadProfile.
 */

#ifndef TDC_WORKLOAD_INSTRUCTION_STREAM_HH
#define TDC_WORKLOAD_INSTRUCTION_STREAM_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

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
 * Each hardware thread reads one stream seeded independently, so
 * runs are reproducible and baseline/protected simulations can be
 * paired sample-by-sample (the matched-pair methodology the paper
 * borrows from SimFlex); matched runs share each stream through a
 * StreamRing.
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

/**
 * One instruction stream read by several matched runs. A single
 * InstructionStream writes into a fixed-capacity ring of packed
 * instructions, and each reader keeps its own read position. The
 * reader that reaches the ring's head generates the next instruction
 * on demand and takes it straight from the generator; the others read
 * the packed copy, so every reader sees the generator's sequence.
 *
 * Generating instruction h overwrites instruction h - capacity: the
 * caller keeps every reader fewer than capacity instructions behind
 * the head (cpu/cmp_batch.cc schedules a matched set that way). A
 * ring with a single reader needs a capacity of one.
 */
class StreamRing
{
  public:
    /** @p capacity instructions, a power of two. */
    StreamRing(const WorkloadProfile &profile, uint64_t seed,
               size_t capacity)
        : stream(profile, seed), slots(capacity)
    {
        assert(capacity > 0 && (capacity & (capacity - 1)) == 0);
    }

    /**
     * Instruction @p pos of the stream.
     * @pre pos <= head and head - pos < capacity
     */
    SyntheticInstr read(uint64_t pos)
    {
        assert(pos <= head && head - pos < slots.size());
        if (pos == head) {
            const SyntheticInstr instr = stream.next();
            slots[head++ & (slots.size() - 1)] = pack(instr);
            return instr;
        }
        return unpack(slots[pos & (slots.size() - 1)]);
    }

    /**
     * A ring for the reader at @p pos alone: instructions pos..head-1
     * and the generator's state, in the fewest slots that hold them.
     */
    StreamRing forkAt(uint64_t pos) const
    {
        assert(pos <= head && head - pos < slots.size());
        StreamRing fork(stream, std::bit_ceil(head - pos + 1));
        fork.head = head;
        for (uint64_t p = pos; p < head; ++p)
            fork.slots[p & (fork.slots.size() - 1)] =
                slots[p & (slots.size() - 1)];
        return fork;
    }

  private:
    StreamRing(const InstructionStream &generator, size_t capacity)
        : stream(generator), slots(capacity)
    {
    }

    /** bankHash in bits 0-31, kind in 32-33, the five flags in 34-38
     *  and bubbles in 39-41. */
    static uint64_t pack(const SyntheticInstr &i)
    {
        static_assert(SyntheticInstr::kMaxBubbles < 8,
                      "bubbles are packed into three bits");
        return uint64_t(i.bankHash) | uint64_t(i.kind) << 32 |
               uint64_t(i.ifetchMiss) << 34 | uint64_t(i.l1dMiss) << 35 |
               uint64_t(i.l2Miss) << 36 | uint64_t(i.dirtyEvict) << 37 |
               uint64_t(i.dirtyShared) << 38 | uint64_t(i.bubbles) << 39;
    }

    static SyntheticInstr unpack(uint64_t w)
    {
        SyntheticInstr i;
        i.bankHash = uint32_t(w);
        i.kind = SyntheticInstr::Kind((w >> 32) & 3);
        i.ifetchMiss = (w >> 34) & 1;
        i.l1dMiss = (w >> 35) & 1;
        i.l2Miss = (w >> 36) & 1;
        i.dirtyEvict = (w >> 37) & 1;
        i.dirtyShared = (w >> 38) & 1;
        i.bubbles = unsigned(w >> 39) & 7;
        return i;
    }

    InstructionStream stream;
    std::vector<uint64_t> slots;
    uint64_t head = 0; ///< instructions generated so far
};

} // namespace tdc

#endif // TDC_WORKLOAD_INSTRUCTION_STREAM_HH
