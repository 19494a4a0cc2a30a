/**
 * @file
 * Cycle-level CMP cache-hierarchy timing simulator.
 *
 * This is the repository's stand-in for the FLEXUS full-system
 * simulation of Section 5: synthetic per-core instruction streams
 * (workload module) drive out-of-order or in-order-SMT core front
 * ends against per-core L1 D-cache ports and a shared banked L2. The
 * 2D-protection hooks charge the read-before-write traffic exactly
 * where the paper does: store drains, fills, and L2 write-backs, with
 * optional port stealing for the L1 read halves.
 */

#ifndef TDC_CPU_CMP_SIMULATOR_HH
#define TDC_CPU_CMP_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/port_scheduler.hh"
#include "cpu/cmp_config.hh"
#include "workload/instruction_stream.hh"
#include "workload/workload_profile.hh"

namespace tdc
{

/** Result of one simulation run. */
struct CmpSimResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;

    /** Aggregate user instructions committed per cycle. */
    double ipc() const
    {
        return cycles == 0 ? 0.0 : double(instructions) / double(cycles);
    }

    /**
     * Access counters for the Figure 6 breakdown. L1 counters are
     * summed over all cores.
     */
    uint64_t l1ReadsData = 0;
    uint64_t l1Writes = 0;       ///< store drains into the L1 array
    uint64_t l1FillEvict = 0;    ///< refills (and the evictions they cause)
    uint64_t l1ExtraReads = 0;   ///< 2D read-before-write reads
    uint64_t l1DirtyTransfers = 0; ///< L1-to-L1 dirty data transfers
    uint64_t l2ReadsInst = 0;    ///< instruction-side refills
    uint64_t l2ReadsData = 0;    ///< data-side refills
    uint64_t l2Writes = 0;       ///< write-backs from L1 (+ WT stores)
    uint64_t l2FillEvict = 0;    ///< memory refills into L2
    uint64_t l2ExtraReads = 0;   ///< 2D read-before-write reads in L2

    /** Accesses per 100 cycles helpers. */
    double per100(uint64_t count) const
    {
        return cycles == 0 ? 0.0
                           : 100.0 * double(count) / double(cycles);
    }
};

/**
 * The simulator. One instance simulates one (machine, workload,
 * protection) combination. Pair baseline and protected runs on the
 * same seed for matched-pair IPC comparison: hardware thread k reads
 * the instruction stream seeded seed * 7919 + k + 1, so matched runs
 * read identical streams, and a matched set can share them (one
 * StreamRing per thread; see cpu/cmp_batch.hh).
 *
 * Time advances from one due core step to the next: after each step a
 * core records the earliest cycle at which its next step could change
 * any state (a load completing, the store queue draining, a thread or
 * the fetch unit unblocking), and the cycles in which no core is due
 * are skipped. A skipped step would have changed nothing, so every
 * counter is the same as stepping each core on every cycle.
 */
class CmpSimulator
{
  public:
    CmpSimulator(const CmpConfig &machine, const WorkloadProfile &workload,
                 const ProtectionConfig &protection, uint64_t seed = 1);

    /**
     * A run that reads its instruction streams from @p streams, one
     * ring per hardware thread in (core, thread) order, as streams()
     * builds them. The rings must outlive the simulator; other runs
     * may read them too.
     */
    CmpSimulator(const CmpConfig &machine,
                 const ProtectionConfig &protection,
                 const std::vector<StreamRing *> &streams);

    /**
     * The instruction streams of @p machine's hardware threads
     * (cores x threads per core) under @p workload and @p seed, each
     * a ring of @p capacity instructions.
     */
    static std::vector<StreamRing> streams(const CmpConfig &machine,
                                           const WorkloadProfile &workload,
                                           uint64_t seed, size_t capacity);

    /** Run for @p cycles cycles and return the aggregate result. */
    CmpSimResult run(uint64_t cycles);

    /**
     * Instructions read so far from stream @p k, or UINT64_MAX for a
     * stream the machine never reads (an out-of-order core issues
     * from its first thread only).
     */
    uint64_t streamPosition(size_t k) const
    {
        return readers[k] == nullptr ? UINT64_MAX : readers[k]->pos;
    }

    /**
     * Move stream @p k onto a private fork of its ring (StreamRing::
     * forkAt), which this run then reads alone.
     */
    void detachStream(size_t k);

  private:
    /** One pending load completion. */
    struct Pending
    {
        uint64_t doneCycle = 0;
        bool fillsL1 = false;     ///< refill writes the L1 array
        bool dirtyEvict = false;  ///< refill evicts a dirty line
        unsigned bank = 0;        ///< L2 bank (for fills / write-backs)
    };

    /** Per-hardware-thread state: one per thread of an in-order
     *  core, one per out-of-order core. */
    struct ThreadState
    {
        StreamRing *ring = nullptr;
        uint64_t pos = 0;          ///< instructions read from the ring
        uint64_t blockedUntil = 0; ///< in-order: waiting on a load/ifetch
        unsigned bubbleDebt = 0;   ///< pending ILP bubbles

        SyntheticInstr next() { return ring->read(pos++); }
    };

    /** Per-core state. */
    struct CoreState
    {
        unsigned selfIndex = 0;
        std::vector<ThreadState> threads;
        unsigned nextThread = 0; ///< SMT round-robin pointer
        std::unique_ptr<PortScheduler> l1Ports;
        std::vector<Pending> pending; ///< outstanding loads (OoO window)
        unsigned fillsInFlight = 0;   ///< pending L1 fills (MSHRs in use)
        uint64_t nextDone = UINT64_MAX; ///< smallest pending doneCycle
        unsigned storeQueueOcc = 0;
        uint64_t lastDrain = 0;       ///< cycle of the last SQ drain
        uint64_t fetchStallUntil = 0; ///< OoO ifetch-miss stall
        uint64_t wakeAt = 0;          ///< next cycle the core is stepped
    };

    /** Bind each hardware thread to its ring of @p rings. */
    void build(const std::vector<StreamRing *> &rings);

    /** Track a new pending load. */
    static void addPending(CoreState &core, const Pending &p);

    /**
     * Lower bound on the next cycle after now in which stepping @p core
     * would change any state.
     */
    uint64_t wakeCycle(const CoreState &core) const;

    /**
     * Service an L1 miss: either an L1-to-L1 dirty transfer from a
     * peer core or an L2 (and possibly memory) access. Returns the
     * total fill latency beyond the L1 port delay.
     */
    unsigned serviceMiss(CoreState &core, const SyntheticInstr &instr,
                         unsigned bank);

    /** Charge an L2 bank access; returns its queueing delay. */
    unsigned accessL2(unsigned bank, bool is_write);

    /** Batch-drain the store queue through the L1 ports. */
    void drainStoreQueue(CoreState &core);

    /** Handle completion-side work (fills, evictions) for one core. */
    void completePending(CoreState &core);

    /** Issue-side logic for an out-of-order core. */
    void stepOutOfOrderCore(CoreState &core);

    /** Issue-side logic for an in-order SMT core. */
    void stepInOrderCore(CoreState &core);

    /** Latency of a data access beyond the L1 (L2 / memory). */
    unsigned missLatency(const SyntheticInstr &instr, unsigned bank_delay)
        const;

    CmpConfig machine;
    ProtectionConfig protection;

    /** In-order thread stall for each bubble count 0..kMaxBubbles. */
    std::array<uint64_t, SyntheticInstr::kMaxBubbles + 1> bubbleStall{};

    std::vector<CoreState> cores;
    std::vector<std::unique_ptr<PortScheduler>> l2Banks;

    /** The reader of each stream, nullptr for a stream never read. */
    std::vector<ThreadState *> readers;
    /** Rings this run alone reads: its own streams, or forks of
     *  shared ones. */
    std::vector<std::unique_ptr<StreamRing>> ownRings;

    uint64_t now = 0;
    CmpSimResult result;
};

} // namespace tdc

#endif // TDC_CPU_CMP_SIMULATOR_HH
