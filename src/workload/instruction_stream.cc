#include "workload/instruction_stream.hh"

#include <algorithm>

namespace tdc
{

InstructionStream::InstructionStream(const WorkloadProfile &profile,
                                     uint64_t seed)
    : rng(seed), burstOn(bernoulliThreshold(profile.burstOnProb)),
      burstOff(bernoulliThreshold(profile.burstOffProb)),
      l1iMiss(bernoulliThreshold(profile.l1iMissRate)),
      ilpBubble(bernoulliThreshold(profile.ilpBubbleProb)),
      bubbleGrow(bernoulliThreshold(0.45)),
      l1dMiss(bernoulliThreshold(profile.l1dMissRate)),
      l2Miss(bernoulliThreshold(profile.l2MissRate)),
      dirtyEvict(bernoulliThreshold(profile.dirtyEvictFrac)),
      dirtyShared(bernoulliThreshold(profile.dirtySharedFrac))
{
    const auto mix = [&](double boost) {
        const double load_p = std::min(0.9, profile.loadFrac * boost);
        const double store_p =
            std::min(0.9 - load_p, profile.storeFrac * boost);
        return MixThresholds{bernoulliThreshold(load_p),
                             bernoulliThreshold(load_p + store_p)};
    };
    calmMix = mix(1.0);
    burstMix = mix(profile.burstLoadBoost);
}

SyntheticInstr
InstructionStream::next()
{
    // Markov burst phase transition.
    if (inBurst) {
        if (rng.nextBelow53(burstOff))
            inBurst = false;
    } else {
        if (rng.nextBelow53(burstOn))
            inBurst = true;
    }
    const MixThresholds &mix = inBurst ? burstMix : calmMix;

    SyntheticInstr instr;
    instr.ifetchMiss = rng.nextBelow53(l1iMiss);
    instr.bankHash = uint32_t(rng.next());

    // ILP bubbles: geometric tail, capped so one draw cannot freeze a
    // core for long.
    if (rng.nextBelow53(ilpBubble)) {
        instr.bubbles = 1;
        while (instr.bubbles < SyntheticInstr::kMaxBubbles &&
               rng.nextBelow53(bubbleGrow))
            ++instr.bubbles;
    }

    const uint64_t draw = rng.next() >> 11;
    if (draw < mix.load)
        instr.kind = SyntheticInstr::Kind::kLoad;
    else if (draw < mix.loadOrStore)
        instr.kind = SyntheticInstr::Kind::kStore;
    else
        instr.kind = SyntheticInstr::Kind::kNonMem;

    if (instr.kind != SyntheticInstr::Kind::kNonMem) {
        instr.l1dMiss = rng.nextBelow53(l1dMiss);
        if (instr.l1dMiss) {
            instr.l2Miss = rng.nextBelow53(l2Miss);
            instr.dirtyEvict = rng.nextBelow53(dirtyEvict);
            instr.dirtyShared =
                !instr.l2Miss && rng.nextBelow53(dirtyShared);
        }
    }
    return instr;
}

} // namespace tdc
