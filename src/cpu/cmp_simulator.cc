#include "cpu/cmp_simulator.hh"

#include <algorithm>
#include <cassert>

namespace tdc
{

namespace
{

/**
 * Store-queue drain policy: writes coalesce and drain in batches (a
 * write buffer drains when it fills or when the oldest entry times
 * out). Batching is what makes the read-before-write reads cluster —
 * and why port stealing cannot hide all of them.
 */
constexpr unsigned kDrainBatch = 4;
constexpr unsigned kDrainTimeout = 16;

} // namespace

CmpSimulator::CmpSimulator(const CmpConfig &machine_,
                           const WorkloadProfile &workload,
                           const ProtectionConfig &protection_,
                           uint64_t seed)
    : machine(machine_), protection(protection_)
{
    std::vector<StreamRing *> rings;
    for (StreamRing &ring : streams(machine, workload, seed, 1)) {
        ownRings.push_back(std::make_unique<StreamRing>(std::move(ring)));
        rings.push_back(ownRings.back().get());
    }
    build(rings);
}

CmpSimulator::CmpSimulator(const CmpConfig &machine_,
                           const ProtectionConfig &protection_,
                           const std::vector<StreamRing *> &rings)
    : machine(machine_), protection(protection_)
{
    build(rings);
}

std::vector<StreamRing>
CmpSimulator::streams(const CmpConfig &machine,
                      const WorkloadProfile &workload, uint64_t seed,
                      size_t capacity)
{
    const size_t n = size_t(machine.cores) * machine.threadsPerCore;
    std::vector<StreamRing> rings;
    rings.reserve(n);
    for (size_t k = 0; k < n; ++k)
        rings.emplace_back(workload, seed * 7919 + k + 1, capacity);
    return rings;
}

void
CmpSimulator::build(const std::vector<StreamRing *> &rings)
{
    assert(rings.size() == size_t(machine.cores) * machine.threadsPerCore);
    readers.assign(rings.size(), nullptr);
    // An out-of-order core issues from its first thread only.
    const unsigned active = machine.outOfOrder ? 1 : machine.threadsPerCore;
    cores.resize(machine.cores);
    for (unsigned c = 0; c < machine.cores; ++c) {
        CoreState &core = cores[c];
        core.selfIndex = c;
        core.threads.resize(active);
        for (unsigned t = 0; t < active; ++t) {
            const size_t k = size_t(c) * machine.threadsPerCore + t;
            core.threads[t].ring = rings[k];
            readers[k] = &core.threads[t];
        }
        const unsigned window =
            protection.l1PortStealing ? machine.stealWindow : 0;
        core.l1Ports =
            std::make_unique<PortScheduler>(machine.l1Ports, window);
    }
    for (unsigned b = 0; b < machine.l2Banks; ++b)
        l2Banks.push_back(std::make_unique<PortScheduler>(1, 0));
    for (unsigned b = 0; b < bubbleStall.size(); ++b) {
        const double scaled = double(b) * machine.bubbleScale;
        bubbleStall[b] = uint64_t(
            (scaled + machine.issueWidth - 1) / machine.issueWidth);
    }
}

void
CmpSimulator::detachStream(size_t k)
{
    ThreadState &thread = *readers[k];
    ownRings.push_back(
        std::make_unique<StreamRing>(thread.ring->forkAt(thread.pos)));
    thread.ring = ownRings.back().get();
}

unsigned
CmpSimulator::accessL2(unsigned bank, bool is_write)
{
    assert(bank < l2Banks.size());
    PortScheduler &sched = *l2Banks[bank];
    sched.advanceTo(now);

    unsigned delay = 0;
    if (is_write && protection.l2TwoDim) {
        // Read-before-write in the L2 bank: the old line is read to
        // update the vertical parity before the write lands.
        for (unsigned i = 0; i < machine.l2BankBusy; ++i)
            delay = sched.issueDemand();
        ++result.l2ExtraReads;
    }
    for (unsigned i = 0; i < machine.l2BankBusy; ++i)
        delay = sched.issueDemand();
    return delay;
}

unsigned
CmpSimulator::missLatency(const SyntheticInstr &instr,
                          unsigned bank_delay) const
{
    unsigned latency = machine.l1HitLatency + machine.l2HitLatency +
                       bank_delay;
    if (instr.l2Miss)
        latency += machine.memLatency;
    return latency;
}

void
CmpSimulator::addPending(CoreState &core, const Pending &p)
{
    core.pending.push_back(p);
    core.fillsInFlight += p.fillsL1;
    core.nextDone = std::min(core.nextDone, p.doneCycle);
}

uint64_t
CmpSimulator::wakeCycle(const CoreState &core) const
{
    if (core.storeQueueOcc >= kDrainBatch)
        return now + 1; // a full batch drains every cycle
    uint64_t wake = core.nextDone;
    if (core.storeQueueOcc > 0)
        wake = std::min(wake, core.lastDrain + kDrainTimeout);
    if (machine.outOfOrder) {
        // A full window issues nothing until a load completes.
        if (core.pending.size() < machine.robSize)
            wake = std::min(wake, core.fetchStallUntil);
    } else {
        for (const ThreadState &t : core.threads)
            wake = std::min(wake, t.blockedUntil);
    }
    return std::max(wake, now + 1);
}

unsigned
CmpSimulator::serviceMiss(CoreState &core, const SyntheticInstr &instr,
                          unsigned bank)
{
    if (instr.dirtyShared && machine.cores > 1) {
        // L1-to-L1 transfer of dirty data: the peer's L1 sources the
        // line over the crossbar instead of the L2. The peer pays one
        // port access for the source read.
        CoreState &peer =
            cores[(core.selfIndex + 1 + instr.bankHash % (machine.cores -
                                                          1)) %
                  machine.cores];
        peer.l1Ports->advanceTo(now);
        peer.l1Ports->issueDemand();
        ++result.l1DirtyTransfers;
        return machine.l1HitLatency + machine.l2HitLatency;
    }

    const unsigned bank_delay = accessL2(bank, false);
    ++result.l2ReadsData;
    if (instr.l2Miss) {
        // The memory refill writes the line into the L2 (another
        // write the 2D L2 must read-before-write).
        accessL2(bank, true);
        ++result.l2FillEvict;
    }
    return missLatency(instr, bank_delay);
}

void
CmpSimulator::completePending(CoreState &core)
{
    if (core.nextDone > now)
        return;
    uint64_t next_done = UINT64_MAX;
    for (size_t i = 0; i < core.pending.size();) {
        Pending &p = core.pending[i];
        if (p.doneCycle > now) {
            next_done = std::min(next_done, p.doneCycle);
            ++i;
            continue;
        }
        if (p.fillsL1) {
            --core.fillsInFlight;
            // The refill writes the L1 array; under 2D coding the
            // fill is a write and therefore a read-before-write.
            core.l1Ports->advanceTo(now);
            if (protection.l1TwoDim) {
                if (protection.l1PortStealing)
                    core.l1Ports->issueStolenRead();
                else
                    core.l1Ports->issueDemand();
                ++result.l1ExtraReads;
            }
            core.l1Ports->issueDemand();
            ++result.l1FillEvict;
            if (p.dirtyEvict) {
                // Dirty victim: write-back into the L2 bank.
                accessL2(p.bank, true);
                ++result.l2Writes;
            }
        }
        core.pending[i] = core.pending.back();
        core.pending.pop_back();
    }
    core.nextDone = next_done;
}

void
CmpSimulator::drainStoreQueue(CoreState &core)
{
    // Writes coalesce; the buffer drains a batch when it fills or the
    // oldest entry times out. Clustered drains mean the 2D
    // read-before-write reads arrive in clusters too, which is why
    // port stealing cannot absorb every one of them.
    const bool full_batch = core.storeQueueOcc >= kDrainBatch;
    const bool timed_out = core.storeQueueOcc > 0 &&
                           now - core.lastDrain >= kDrainTimeout;
    if (!full_batch && !timed_out)
        return;
    core.lastDrain = now;
    const unsigned n = std::min<unsigned>(kDrainBatch,
                                          core.storeQueueOcc);
    for (unsigned d = 0; d < n; ++d) {
        if (protection.l1TwoDim) {
            if (protection.l1PortStealing)
                core.l1Ports->issueStolenRead();
            else
                core.l1Ports->issueDemand();
            ++result.l1ExtraReads;
        }
        core.l1Ports->issueDemand();
        ++result.l1Writes;
        --core.storeQueueOcc;
        if (protection.l1WriteThrough) {
            // Duplicate the store into the next level: the L2 write
            // that makes the write-through alternative expensive,
            // especially with a shared L2 (Section 2.1).
            const unsigned bank =
                unsigned((now * 2654435761u + d) % machine.l2Banks);
            accessL2(bank, true);
            ++result.l2Writes;
        }
    }
}

void
CmpSimulator::stepOutOfOrderCore(CoreState &core)
{
    core.l1Ports->advanceTo(now);
    completePending(core);
    drainStoreQueue(core);

    if (now < core.fetchStallUntil)
        return; // waiting on an instruction refill

    ThreadState &thread = core.threads[0];
    for (unsigned slot = 0; slot < machine.issueWidth; ++slot) {
        if (core.pending.size() >= machine.robSize)
            break; // in-flight window full: stall

        // ILP bubbles (dependency stalls attached to the previous
        // instruction) consume issue slots without committing work.
        // They leave the window as it is, so the check above holds
        // for every slot they take.
        const unsigned bubbles =
            std::min(thread.bubbleDebt, machine.issueWidth - slot);
        thread.bubbleDebt -= bubbles;
        slot += bubbles;
        if (slot == machine.issueWidth)
            break;

        const SyntheticInstr instr = thread.next();
        thread.bubbleDebt = instr.bubbles;

        if (instr.ifetchMiss) {
            const unsigned bank = instr.bankHash % machine.l2Banks;
            const unsigned delay = accessL2(bank, false);
            ++result.l2ReadsInst;
            core.fetchStallUntil =
                now + machine.l2HitLatency + delay +
                (instr.l2Miss ? machine.memLatency : 0);
        }

        // Stores and non-memory instructions share one path: the
        // store only occupies a queue entry, counted without a branch.
        const bool store = instr.kind == SyntheticInstr::Kind::kStore;
        if (store & (core.storeQueueOcc >= machine.storeQueue))
            break; // store queue full: the core stalls for the cycle
        core.storeQueueOcc += store;
        if (instr.kind == SyntheticInstr::Kind::kLoad) {
            const unsigned port_delay = core.l1Ports->issueDemand();
            ++result.l1ReadsData;
            // Port contention lengthens the load-to-use path; even an
            // OoO core loses some issue slots to dependents waiting.
            thread.bubbleDebt += port_delay * machine.loadUseSlots;
            Pending p;
            if (instr.l1dMiss) {
                const unsigned bank = instr.bankHash % machine.l2Banks;
                p.doneCycle =
                    now + port_delay + serviceMiss(core, instr, bank);
                p.fillsL1 = true;
                p.dirtyEvict = instr.dirtyEvict;
                p.bank = bank;
            } else {
                p.doneCycle = now + port_delay + machine.l1HitLatency;
            }
            addPending(core, p);
            // A full MSHR file is a structural hazard: no further
            // issue this cycle.
            if (instr.l1dMiss && core.fillsInFlight >= machine.mshrs)
                break;
        }
        ++result.instructions;

        if (instr.ifetchMiss)
            break; // fetch redirects; later slots are bubbles
    }
}

void
CmpSimulator::stepInOrderCore(CoreState &core)
{
    core.l1Ports->advanceTo(now);
    completePending(core);
    drainStoreQueue(core);

    // Fine-grain multithreading: each issue slot goes to the next
    // ready thread (round-robin).
    const unsigned nthreads = unsigned(core.threads.size());
    for (unsigned slot = 0; slot < machine.issueWidth; ++slot) {
        ThreadState *picked = nullptr;
        unsigned t = core.nextThread;
        for (unsigned k = 0; k < nthreads; ++k) {
            ThreadState &cand = core.threads[t];
            if (++t == nthreads)
                t = 0;
            if (cand.blockedUntil <= now) {
                picked = &cand;
                core.nextThread = t;
                break;
            }
        }
        if (picked == nullptr)
            break; // every thread is blocked

        const SyntheticInstr instr = picked->next();

        // Dependency bubbles stall this thread; the other hardware
        // threads keep the issue slots busy (fine-grain SMT latency
        // hiding). A picked thread is unblocked (blockedUntil <= now)
        // and bubbleStall[0] is 0, so no bubble leaves it unblocked.
        picked->blockedUntil = std::max(picked->blockedUntil,
                                        now + bubbleStall[instr.bubbles]);

        if (instr.ifetchMiss) {
            const unsigned bank = instr.bankHash % machine.l2Banks;
            const unsigned delay = accessL2(bank, false);
            ++result.l2ReadsInst;
            picked->blockedUntil =
                now + machine.l2HitLatency + delay +
                (instr.l2Miss ? machine.memLatency : 0);
        }

        const bool store = instr.kind == SyntheticInstr::Kind::kStore;
        if (store & (core.storeQueueOcc >= machine.storeQueue)) {
            // Store queue full: retry next cycle.
            picked->blockedUntil = now + 1;
            continue;
        }
        core.storeQueueOcc += store;
        if (instr.kind == SyntheticInstr::Kind::kLoad) {
            const unsigned port_delay = core.l1Ports->issueDemand();
            ++result.l1ReadsData;
            if (instr.l1dMiss) {
                // A full MSHR file is a structural hazard: the thread
                // stalls and the load replays once an MSHR frees up
                // (the instruction is not committed now).
                if (core.fillsInFlight >= machine.mshrs) {
                    picked->blockedUntil = now + 2;
                    continue;
                }
                const unsigned bank = instr.bankHash % machine.l2Banks;
                const uint64_t done =
                    now + port_delay + serviceMiss(core, instr, bank);
                // In-order: the thread blocks until the load returns.
                picked->blockedUntil =
                    std::max(picked->blockedUntil, done);
                Pending p;
                p.doneCycle = done;
                p.fillsL1 = true;
                p.dirtyEvict = instr.dirtyEvict;
                p.bank = bank;
                addPending(core, p);
            } else {
                // In-order blocking load: the thread waits for the L1
                // hit (plus any port-contention delay); the other
                // hardware threads hide the gap.
                picked->blockedUntil = std::max(
                    picked->blockedUntil,
                    now + port_delay + machine.l1HitLatency);
            }
        }
        ++result.instructions;
    }
}

CmpSimResult
CmpSimulator::run(uint64_t cycles)
{
    const uint64_t end = now + cycles;
    while (now < end) {
        // Step the due cores in core order, then jump to the earliest
        // cycle in which any core is due again.
        uint64_t next = end;
        for (CoreState &core : cores) {
            if (core.wakeAt <= now) {
                if (machine.outOfOrder)
                    stepOutOfOrderCore(core);
                else
                    stepInOrderCore(core);
                core.wakeAt = wakeCycle(core);
            }
            next = std::min(next, core.wakeAt);
        }
        now = next;
    }
    result.cycles += cycles;
    return result;
}

} // namespace tdc
