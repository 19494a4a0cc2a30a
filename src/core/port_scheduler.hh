/**
 * @file
 * Cache-port occupancy model with the paper's port-stealing
 * optimization for read-before-write operations (Section 4).
 */

#ifndef TDC_CORE_PORT_SCHEDULER_HH
#define TDC_CORE_PORT_SCHEDULER_HH

#include <cstdint>
#include <vector>

namespace tdc
{

/**
 * Models the port occupancy of one cache (or one cache bank).
 *
 * Each cycle offers `ports` access slots. Demand accesses occupy a
 * slot in FIFO order; if the current cycle is full the access spills
 * into the next cycle (reported as delay). A 2D-protected cache turns
 * every write into a read-before-write: the read half is an *extra*
 * access. Without port stealing it is scheduled like any demand
 * access (in front of the write). With port stealing, the scheduler
 * first tries to absorb it into an idle slot observed during the past
 * `stealWindow` cycles — the store-queue residency during which the
 * read can issue early, after [27] — and only charges a slot when no
 * idle slot was available.
 */
class PortScheduler
{
  public:
    /**
     * @param ports access slots per cycle
     * @param steal_window how many past cycles of idle slots a stolen
     *        read may use (0 disables port stealing)
     */
    PortScheduler(unsigned ports, unsigned steal_window);

    /**
     * Advance time to @p cycle (monotonic). Advancing straight to a
     * later cycle leaves the same state as advancing one cycle at a
     * time, so callers need only visit the cycles they access.
     */
    void advanceTo(uint64_t cycle)
    {
        if (cycle != now)
            advancePast(cycle);
    }

    /**
     * Issue a demand access (read, write, or fill) at the current
     * cycle. Returns the queueing delay in cycles (0 = issued this
     * cycle).
     */
    unsigned issueDemand()
    {
        if (horizonUsed >= ports) {
            ++horizonCycle;
            horizonUsed = 0;
        }
        ++horizonUsed;
        return unsigned(horizonCycle - now);
    }

    /**
     * Issue the read half of a read-before-write. Returns the number
     * of *charged* port slots (0 if the read was absorbed by port
     * stealing, 1 if it consumed a demand slot).
     */
    unsigned issueStolenRead();

  private:
    /** advanceTo() a later cycle. */
    void advancePast(uint64_t cycle);

    unsigned ports;
    unsigned stealWindow;
    uint64_t now = 0;

    /** Next cycle with a free slot >= now, and slots already used in it. */
    uint64_t horizonCycle = 0;
    unsigned horizonUsed = 0;

    /**
     * Idle slots of each of the last stealWindow cycles: a ring whose
     * oldest entry is at idleOldest. It grows by one entry per elapsed
     * cycle until it holds stealWindow entries, so it never holds more
     * counters than cycles have elapsed, whatever the window; the
     * cycles before time began have no idle slot to steal. idleBank is
     * the ring's sum.
     */
    std::vector<unsigned> idleRing;
    unsigned idleOldest = 0;
    unsigned idleBank = 0;
};

} // namespace tdc

#endif // TDC_CORE_PORT_SCHEDULER_HH
