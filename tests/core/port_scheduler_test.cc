#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/port_scheduler.hh"

namespace tdc
{
namespace
{

TEST(PortScheduler, DemandWithinBandwidthHasNoDelay)
{
    PortScheduler ps(2, 0);
    for (uint64_t c = 0; c < 10; ++c) {
        ps.advanceTo(c);
        EXPECT_EQ(ps.issueDemand(), 0u);
        EXPECT_EQ(ps.issueDemand(), 0u);
    }
    EXPECT_EQ(ps.totalDelay(), 0u);
    EXPECT_EQ(ps.demandIssued(), 20u);
}

TEST(PortScheduler, OversubscriptionSpillsToNextCycle)
{
    PortScheduler ps(1, 0);
    ps.advanceTo(0);
    EXPECT_EQ(ps.issueDemand(), 0u); // fills cycle 0
    EXPECT_EQ(ps.issueDemand(), 1u); // spills to cycle 1
    EXPECT_EQ(ps.issueDemand(), 2u); // spills to cycle 2
    EXPECT_EQ(ps.totalDelay(), 3u);
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
    ps.advanceTo(0);
    EXPECT_EQ(ps.issueStolenRead(), 1u);
    EXPECT_EQ(ps.stolenCharged(), 1u);
    EXPECT_EQ(ps.stolenAbsorbed(), 0u);
}

TEST(PortScheduler, StealingAbsorbsIntoIdleSlots)
{
    // One port, idle cycles 0..9, then a burst of stolen reads at 10:
    // the window holds 8 idle slots, so 8 reads are free.
    PortScheduler ps(1, 8);
    ps.advanceTo(10); // cycles 0..9 idle
    unsigned charged = 0;
    for (int i = 0; i < 10; ++i)
        charged += ps.issueStolenRead();
    EXPECT_EQ(ps.stolenAbsorbed(), 8u);
    EXPECT_EQ(charged, 2u);
    EXPECT_EQ(ps.stolenCharged(), 2u);
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
    EXPECT_EQ(ps.stolenAbsorbed(), 0u);
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
                        ASSERT_EQ(stepped.issueDemand(), jumped.issueDemand())
                            << ports << "x" << window << " event " << event;
                    } else {
                        ASSERT_EQ(stepped.issueStolenRead(),
                                  jumped.issueStolenRead())
                            << ports << "x" << window << " event " << event;
                    }
                }
                ASSERT_EQ(stepped.stolenAbsorbed(), jumped.stolenAbsorbed());
                ASSERT_EQ(stepped.stolenCharged(), jumped.stolenCharged());
                ASSERT_EQ(stepped.totalDelay(), jumped.totalDelay());
            }
            // Both outcomes actually occurred.
            EXPECT_GT(jumped.stolenAbsorbed(), 0u) << ports << "x" << window;
            EXPECT_GT(jumped.stolenCharged(), 0u) << ports << "x" << window;
            EXPECT_GT(jumped.totalDelay(), 0u) << ports << "x" << window;
        }
    }
}

} // namespace
} // namespace tdc
