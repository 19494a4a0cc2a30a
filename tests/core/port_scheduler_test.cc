#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "core/port_scheduler.hh"

namespace tdc
{
namespace
{

TEST(PortScheduler, DemandWithinBandwidthHasNoDelay)
{
    PortScheduler ps(2, 0);
    unsigned delay = 0;
    for (uint64_t c = 0; c < 10; ++c) {
        ps.advanceTo(c);
        delay += ps.issueDemand();
        delay += ps.issueDemand();
    }
    EXPECT_EQ(delay, 0u);
    // Both ports of the last cycle are taken: a third demand spills.
    EXPECT_EQ(ps.issueDemand(), 1u);
}

TEST(PortScheduler, OversubscriptionSpillsToNextCycle)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    EXPECT_EQ(ps.issueDemand(), 0u); // fills cycle 0
    EXPECT_EQ(ps.issueDemand(), 1u); // spills to cycle 1
    EXPECT_EQ(ps.issueDemand(), 2u); // spills to cycle 2
    // One cycle later the backlog is a cycle shorter.
    ps.advanceTo(1);
    EXPECT_EQ(ps.issueDemand(), 2u); // cycle 3
}

TEST(PortScheduler, BacklogDrainsOverTime)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    ps.issueDemand();
    ps.issueDemand(); // backlog 1 cycle deep
    ps.advanceTo(5);  // plenty of idle time elapses
    EXPECT_EQ(ps.issueDemand(), 0u);
}

TEST(PortScheduler, NoStealingChargesEveryRead)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(10); // idle cycles, but no window to steal them
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.issueDemand(), 2u); // behind both charged reads
}

TEST(PortScheduler, StealingAbsorbsIntoIdleSlots)
{
    // One port, idle cycles 0..9, then a burst of stolen reads at 10:
    // the window holds 8 idle slots, so 8 reads are free.
    PortScheduler ps(1, 8);
    ps.advanceTo(10); // cycles 0..9 idle
    std::vector<unsigned> charged;
    for (int i = 0; i < 10; ++i)
        charged.push_back(ps.issueStolenRead());
    // The first eight are absorbed; the last two take cycles 10, 11.
    EXPECT_EQ(charged, (std::vector<unsigned>{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}));
    EXPECT_EQ(ps.issueDemand(), 2u);
}

TEST(PortScheduler, BusyPortLeavesNothingToSteal)
{
    PortScheduler ps(1, 8);
    for (uint64_t c = 0; c < 8; ++c) {
        ps.advanceTo(c);
        ps.issueDemand(); // saturate every cycle
    }
    ps.advanceTo(8);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
}

TEST(PortScheduler, WindowLimitsHowFarBackStealingSees)
{
    // Idle at cycles 0..1, then saturated 2..9: a window of 4 only
    // remembers the busy cycles.
    PortScheduler ps(1, 4);
    ps.advanceTo(2);
    for (uint64_t c = 2; c < 10; ++c) {
        ps.advanceTo(c);
        ps.issueDemand();
    }
    ps.advanceTo(10);
    EXPECT_EQ(ps.issueStolenRead(), 1u); // old idle slots expired
}

TEST(PortScheduler, MultiPortIdleSlotsAccumulate)
{
    PortScheduler ps(2, 16);
    // One demand per cycle leaves one idle slot per cycle.
    for (uint64_t c = 0; c < 6; ++c) {
        ps.advanceTo(c);
        ps.issueDemand();
    }
    ps.advanceTo(6);
    unsigned absorbed = 0;
    for (int i = 0; i < 6; ++i)
        absorbed += ps.issueStolenRead() == 0 ? 1 : 0;
    EXPECT_EQ(absorbed, 6u);
}

TEST(PortScheduler, ChargedStolenReadOccupiesARealSlot)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    ps.issueStolenRead();             // takes cycle 0
    EXPECT_EQ(ps.issueDemand(), 1u);  // demand pushed to cycle 1
}

TEST(PortScheduler, JumpingEqualsSteppingEveryCycle)
{
    // A caller may advance straight to the next cycle it needs the
    // port. One scheduler visits every cycle, its twin jumps 1..40
    // cycles at a time; the same seeded bursts of demands and stolen
    // reads (some deeper than the ports, so a backlog builds) must see
    // the same results on both.
    for (const unsigned ports : {1u, 2u}) {
        for (const unsigned window : {1u, 4u, 12u}) {
            PortScheduler stepped(ports, window);
            PortScheduler jumped(ports, window);
            Rng rng(ports * 100 + window);
            uint64_t cycle = 0;
            uint64_t absorbed = 0;
            uint64_t charged = 0;
            uint64_t delay = 0;
            for (int event = 0; event < 4000; ++event) {
                // Mostly short gaps, so bursts overlap and drain the
                // window; every fourth or so a jump of up to 40 cycles.
                const uint64_t next =
                    cycle + 1 + rng.nextBelow(rng.nextBool(0.25) ? 40 : 3);
                while (cycle < next)
                    stepped.advanceTo(++cycle);
                jumped.advanceTo(cycle);
                const uint64_t accesses = rng.nextBelow(3 * ports + 3);
                for (uint64_t i = 0; i < accesses; ++i) {
                    if (rng.nextBool(0.5)) {
                        const unsigned d = jumped.issueDemand();
                        ASSERT_EQ(stepped.issueDemand(), d)
                            << ports << "x" << window << " event " << event;
                        delay += d;
                    } else {
                        const unsigned c = jumped.issueStolenRead();
                        ASSERT_EQ(stepped.issueStolenRead(), c)
                            << ports << "x" << window << " event " << event;
                        charged += c;
                        absorbed += 1 - c;
                    }
                }
            }
            // Both outcomes actually occurred.
            EXPECT_GT(absorbed, 0u) << ports << "x" << window;
            EXPECT_GT(charged, 0u) << ports << "x" << window;
            EXPECT_GT(delay, 0u) << ports << "x" << window;
        }
    }
}

TEST(PortScheduler, WindowsPastTheElapsedSpanAgree)
{
    // The idle ring holds at most one counter per elapsed cycle, so a
    // window as long as the whole schedule, 2^20 cycles and 2^32 - 1
    // cycles all run in a few kilobytes, and on a schedule that short
    // every elapsed cycle is in each window: the three must issue
    // alike. A short window must not (the schedule reaches far back).
    static constexpr uint64_t kCycles = 3000;
    const auto run = [](unsigned window) {
        PortScheduler ps(2, window);
        Rng rng(2026);
        std::vector<unsigned> results;
        uint64_t cycle = 0;
        while (cycle < kCycles) {
            // Quiet stretches bank idle slots; busy ones, deeper than
            // the two ports, drain them and build a backlog.
            cycle = std::min(kCycles, cycle + 1 + rng.nextBelow(
                                                      rng.nextBool(0.1)
                                                          ? 60
                                                          : 2));
            ps.advanceTo(cycle);
            const uint64_t accesses = rng.nextBelow(9);
            for (uint64_t i = 0; i < accesses; ++i)
                results.push_back(rng.nextBool(0.5)
                                      ? ps.issueDemand()
                                      : 100 + ps.issueStolenRead());
        }
        return results;
    };
    const std::vector<unsigned> span = run(unsigned(kCycles));
    EXPECT_EQ(run(1u << 20), span);
    EXPECT_EQ(run(4294967295u), span);
    EXPECT_NE(run(8), span);
    // Both stolen-read outcomes occurred.
    EXPECT_NE(std::count(span.begin(), span.end(), 100u), 0);
    EXPECT_NE(std::count(span.begin(), span.end(), 101u), 0);
}

} // namespace
} // namespace tdc
