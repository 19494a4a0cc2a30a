#include "core/port_scheduler.hh"

#include <cassert>
#include <cstddef>

namespace tdc
{

PortScheduler::PortScheduler(unsigned ports_, unsigned steal_window)
    : ports(ports_), stealWindow(steal_window)
{
    assert(ports > 0);
}

void
PortScheduler::advancePast(uint64_t cycle)
{
    assert(cycle > now);

    // Account idle slots of every fully elapsed cycle for stealing.
    // The horizon cycle may be partially used; cycles between now and
    // the horizon are fully booked (horizon invariant). Only the last
    // stealWindow elapsed cycles can still be in the window, so older
    // ones are not replayed.
    if (stealWindow > 0) {
        const uint64_t first =
            cycle - now > stealWindow ? cycle - stealWindow : now;
        for (uint64_t c = first; c < cycle; ++c) {
            unsigned used = 0;
            if (c < horizonCycle)
                used = ports;
            else if (c == horizonCycle)
                used = horizonUsed;
            const unsigned idle = ports - used;
            idleBank += idle;
            if (idleRing.size() == stealWindow) {
                idleBank -= idleRing[idleOldest];
                idleRing[idleOldest] = idle;
                if (++idleOldest == stealWindow)
                    idleOldest = 0;
            } else {
                // Still filling: the entries run oldest first from 0,
                // where the full ring's oldest entry starts.
                idleRing.push_back(idle);
            }
        }
    }

    now = cycle;
    if (horizonCycle < now) {
        horizonCycle = now;
        horizonUsed = 0;
    }
}

unsigned
PortScheduler::issueStolenRead()
{
    if (stealWindow > 0 && idleBank > 0) {
        // Absorbed into an idle slot observed within the window: the
        // read issued early from the store queue and costs nothing
        // now.
        --idleBank;
        // Consume the oldest recorded idle slot.
        size_t i = idleOldest;
        while (idleRing[i] == 0) {
            if (++i == idleRing.size())
                i = 0;
        }
        --idleRing[i];
        return 0;
    }
    issueDemand();
    return 1;
}

} // namespace tdc
