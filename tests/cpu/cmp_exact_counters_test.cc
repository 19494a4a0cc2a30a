/**
 * Exact counter pins for the cycle-level CMP simulator.
 *
 * The figures only show rounded IPC losses and per-100-cycle rates, so
 * a change that shifts one stall by one cycle can hide behind the
 * rounding. These pins hold every CmpSimResult field of a 20k-cycle
 * run on both Table-1 machines, under every protection the figures
 * use, for one commercial and one scientific workload. Any change to
 * the simulator's timing decisions (or to the instruction streams or
 * port scheduler under it) moves at least one of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.hh"
#include "common/stable_hash.hh"
#include "cpu/cmp_batch.hh"
#include "cpu/cmp_simulator.hh"
#include "../oracles/framed_u64.hh"

namespace tdc
{
namespace
{

constexpr uint64_t kCycles = 20000;
constexpr uint64_t kSeed = 42;

using Counters = std::array<uint64_t, 12>;

/** The 12 CmpSimResult fields, in declaration order. */
Counters
countersOf(const CmpSimResult &r)
{
    return {r.cycles,           r.instructions, r.l1ReadsData,
            r.l1Writes,         r.l1FillEvict,  r.l1ExtraReads,
            r.l1DirtyTransfers, r.l2ReadsInst,  r.l2ReadsData,
            r.l2Writes,         r.l2FillEvict,  r.l2ExtraReads};
}

CmpConfig
machineByName(const std::string &name)
{
    return name == "fat" ? CmpConfig::fat() : CmpConfig::lean();
}

struct Pin
{
    const char *machine;
    const char *protection;
    const char *workload;
    Counters counters;
};

const Pin kPins[] = {
    {"fat", "none", "OLTP",
     {20000, 88101, 27188, 12601, 1225, 0,
      151, 1663, 1079, 490, 220, 0}},
    {"fat", "none", "Ocean",
     {20000, 162621, 44184, 16331, 2396, 0,
      79, 175, 2328, 1204, 1096, 0}},
    {"fat", "l1", "OLTP",
     {20000, 83735, 25905, 11987, 1173, 13160,
      144, 1596, 1030, 472, 211, 0}},
    {"fat", "l1", "Ocean",
     {20000, 150759, 40932, 15100, 2207, 17307,
      73, 167, 2149, 1114, 1006, 0}},
    {"fat", "l1+steal", "OLTP",
     {20000, 85906, 26573, 12285, 1197, 13482,
      150, 1629, 1055, 477, 216, 0}},
    {"fat", "l1+steal", "Ocean",
     {20000, 156646, 42589, 15703, 2302, 18005,
      78, 170, 2243, 1159, 1053, 0}},
    {"fat", "l1+steal+l2", "OLTP",
     {20000, 85330, 26397, 12210, 1189, 13399,
      146, 1621, 1049, 473, 215, 688}},
    {"fat", "l1+steal+l2", "Ocean",
     {20000, 156195, 42460, 15650, 2294, 17944,
      77, 170, 2234, 1156, 1049, 2205}},
    {"fat", "wt", "OLTP",
     {20000, 54647, 16869, 7792, 730, 0,
      81, 1047, 653, 8078, 138, 8216}},
    {"fat", "wt", "Ocean",
     {20000, 82043, 22302, 8267, 1205, 0,
      44, 92, 1200, 8875, 568, 9443}},
    {"lean", "none", "OLTP",
     {20000, 163738, 50410, 23358, 2322, 0,
      251, 3261, 2080, 927, 447, 0}},
    {"lean", "none", "Ocean",
     {20000, 152322, 41583, 15363, 2352, 0,
      75, 147, 2290, 1183, 1095, 0}},
    {"lean", "l1", "OLTP",
     {20000, 155391, 47847, 22162, 2193, 24355,
      235, 3093, 1964, 877, 421, 0}},
    {"lean", "l1", "Ocean",
     {20000, 147295, 40193, 14881, 2275, 17156,
      73, 138, 2218, 1145, 1069, 0}},
    {"lean", "l1+steal", "OLTP",
     {20000, 161310, 49692, 23004, 2288, 25292,
      247, 3203, 2045, 916, 439, 0}},
    {"lean", "l1+steal", "Ocean",
     {20000, 151437, 41328, 15268, 2340, 17608,
      74, 147, 2279, 1174, 1089, 0}},
    {"lean", "l1+steal+l2", "OLTP",
     {20000, 159109, 49026, 22684, 2251, 24935,
      246, 3157, 2015, 899, 435, 1334}},
    {"lean", "l1+steal+l2", "Ocean",
     {20000, 149800, 40856, 15120, 2314, 17434,
      74, 144, 2253, 1161, 1084, 2245}},
    {"lean", "wt", "OLTP",
     {20000, 47945, 14749, 6848, 659, 0,
      68, 946, 603, 7112, 140, 7252}},
    {"lean", "wt", "Ocean",
     {20000, 64463, 17654, 6574, 962, 0,
      31, 64, 954, 7073, 477, 7550}},
};

TEST(CmpExactCounters, EveryFieldMatchesThePin)
{
    for (const Pin &pin : kPins) {
        CmpSimulator sim(machineByName(pin.machine),
                         workloadByName(pin.workload),
                         ProtectionConfig::parse(pin.protection), kSeed);
        EXPECT_EQ(countersOf(sim.run(kCycles)), pin.counters)
            << pin.machine << " " << pin.protection << " "
            << pin.workload;
    }
}

TEST(CmpExactCounters, RecordSaltMatchesThePins)
{
    // runCmpBatch memoises runs under keys salted with
    // kCmpRecordVersion, so a warm cache replays the counters of the
    // simulator that stored them. Re-pinning any counter above changes
    // this digest: bump kCmpRecordVersion in the same change and pin
    // the new (salt, digest) pair here.
    StableHash h;
    for (const Pin &pin : kPins) {
        h.update(std::string_view(pin.machine));
        h.update(std::string_view(pin.protection));
        h.update(std::string_view(pin.workload));
        for (uint64_t c : pin.counters)
            oracle::updateU64(h, c);
    }
    EXPECT_EQ(std::to_string(kCmpRecordVersion) + ":" + h.digest().hex(),
              "1:4df9a2d35e5b11c7f7969524d463e7f7")
        << "re-pinned counters need a kCmpRecordVersion bump";
}

TEST(CmpExactCounters, SplitRunEqualsOneRun)
{
    // run(a) then run(b) must continue exactly where run(a) stopped.
    // The split points land inside memory stalls (a 240-cycle refill
    // blocks most threads most of the time), so a simulator that skips
    // idle cycles must stop its skip at the end of run(a).
    for (const char *machine : {"fat", "lean"}) {
        const CmpConfig m = machineByName(machine);
        const ProtectionConfig p = ProtectionConfig::parse("l1+steal+l2");
        const WorkloadProfile &w = workloadByName("OLTP");
        CmpSimulator whole(m, w, p, kSeed);
        const Counters expected = countersOf(whole.run(kCycles));
        for (const uint64_t a : {uint64_t(1), uint64_t(5), uint64_t(257),
                                 uint64_t(4099), uint64_t(13001)}) {
            CmpSimulator split(m, w, p, kSeed);
            split.run(a);
            EXPECT_EQ(countersOf(split.run(kCycles - a)), expected)
                << machine << " split at " << a;
        }
        // Many short runs of 1..40 cycles each.
        CmpSimulator chunked(m, w, p, kSeed);
        Rng lengths(3);
        uint64_t done = 0;
        CmpSimResult last;
        while (done < kCycles) {
            const uint64_t n =
                std::min(1 + lengths.nextBelow(40), kCycles - done);
            last = chunked.run(n);
            done += n;
        }
        EXPECT_EQ(countersOf(last), expected) << machine << " chunked";
    }
}

} // namespace
} // namespace tdc
