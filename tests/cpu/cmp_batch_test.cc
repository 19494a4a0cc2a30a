#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <string>

#include "common/parallel.hh"
#include "cpu/cmp_batch.hh"
#include "memory_only_cache.hh"
#include "reliability/result_cache.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

// A new field in any of these structs changes its size: add the field
// to cmpRunCacheKey (and a mutation below) before updating the size, or
// runs that differ only in that field share one cache entry.
static_assert(sizeof(CmpConfig) == sizeof(std::string) + 72,
              "CmpConfig changed: add the new field to cmpRunCacheKey");
static_assert(sizeof(WorkloadProfile) == sizeof(std::string) + 96,
              "WorkloadProfile changed: add the new field to "
              "cmpRunCacheKey");
static_assert(sizeof(ProtectionConfig) == 4,
              "ProtectionConfig changed: add the new field to "
              "cmpRunCacheKey");

using Counters = std::array<uint64_t, 12>;

Counters
countersOf(const CmpSimResult &r)
{
    return {r.cycles,           r.instructions, r.l1ReadsData,
            r.l1Writes,         r.l1FillEvict,  r.l1ExtraReads,
            r.l1DirtyTransfers, r.l2ReadsInst,  r.l2ReadsData,
            r.l2Writes,         r.l2FillEvict,  r.l2ExtraReads};
}

TEST(CmpBatch, MatchesIndividualRunsAtEveryThreadCount)
{
    ThreadGuard guard;
    MemoryOnlyCache memory_only;
    constexpr uint64_t kCycles = 20000;
    const std::vector<WorkloadProfile> &workloads = standardWorkloads();
    std::vector<CmpRunSpec> specs;
    for (size_t i = 0; i < 3 && i < workloads.size(); ++i) {
        specs.push_back({CmpConfig::fat(), workloads[i],
                         ProtectionConfig::none(), 7});
        specs.push_back({CmpConfig::lean(), workloads[i],
                         ProtectionConfig::full(true), 7});
    }

    // Ground truth: direct serial simulation per spec.
    std::vector<Counters> expected;
    for (const CmpRunSpec &spec : specs) {
        CmpSimulator sim(spec.machine, spec.workload, spec.protection,
                         spec.seed);
        expected.push_back(countersOf(sim.run(kCycles)));
    }

    ResultCache &cache = resultCache();
    for (unsigned threads : {1u, 2u, 4u}) {
        // Every thread count simulates: no run is served from memory.
        cache.clearMemory();
        cache.resetStats();
        setParallelThreads(threads);
        const std::vector<CmpSimResult> got = runCmpBatch(specs, kCycles);
        EXPECT_EQ(cache.stats().misses, specs.size());
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(countersOf(got[i]), expected[i])
                << i << " at " << threads << " threads";
    }

    // An immediate repeat is served from the memory tier, unchanged.
    cache.resetStats();
    const std::vector<CmpSimResult> again = runCmpBatch(specs, kCycles);
    EXPECT_EQ(cache.stats().memoryHits, specs.size());
    EXPECT_EQ(cache.stats().misses, 0u);
    for (size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(countersOf(again[i]), expected[i]) << i;
}

/** One fig5 cell: the baseline and fig5's four protections. */
std::vector<CmpRunSpec>
fig5Cell(const CmpConfig &machine, const char *workload, uint64_t seed)
{
    std::vector<CmpRunSpec> cell = {
        {machine, workloadByName(workload), ProtectionConfig::none(), seed}};
    for (const char *p : {"l1", "l1+steal", "l2", "l1+steal+l2"})
        cell.push_back({machine, workloadByName(workload),
                        ProtectionConfig::parse(p), seed});
    return cell;
}

Counters
soloRun(const CmpRunSpec &spec, uint64_t cycles)
{
    CmpSimulator sim(spec.machine, spec.workload, spec.protection,
                     spec.seed);
    return countersOf(sim.run(cycles));
}

TEST(CmpBatch, MatchedSetsMatchSoloRuns)
{
    ThreadGuard guard;
    MemoryOnlyCache memory_only;
    // Long enough that every shared ring wraps many times and that the
    // write-through trio, whose WT run lags the others by ~72%, forks
    // streams off the shared rings.
    constexpr uint64_t kCycles = 60000;
    constexpr uint64_t kSeed = 42;
    // fig5's fat and lean OLTP cells.
    std::vector<CmpRunSpec> specs = fig5Cell(CmpConfig::fat(), "OLTP", kSeed);
    for (const CmpRunSpec &spec : fig5Cell(CmpConfig::lean(), "OLTP", kSeed))
        specs.push_back(spec);
    // Ablation 3: the steal window changes, the thread layout does not.
    // Window 1 is the fat CMP's own, so that run repeats the fig5
    // cell's l1+steal run.
    for (const unsigned window : {0u, 1u, 2u, 4u, 8u, 16u}) {
        CmpConfig m = CmpConfig::fat();
        m.stealWindow = window;
        specs.push_back({m, workloadByName("OLTP"),
                         ProtectionConfig::l1Only(window > 0), kSeed});
    }
    // Ablation 5's write-through trio.
    for (const ProtectionConfig &p :
         {ProtectionConfig::none(), ProtectionConfig::full(true),
          ProtectionConfig::writeThroughL1()})
        specs.push_back({CmpConfig::lean(), workloadByName("Web"), p, kSeed});

    std::set<std::string> distinct;
    std::vector<Counters> expected;
    for (const CmpRunSpec &spec : specs) {
        distinct.insert(cmpRunCacheKey(spec, kCycles));
        expected.push_back(soloRun(spec, kCycles));
    }
    ASSERT_EQ(distinct.size(), specs.size() - 1);

    ResultCache &cache = resultCache();
    for (unsigned threads : {1u, 2u, 4u}) {
        cache.clearMemory();
        cache.resetStats();
        setParallelThreads(threads);
        const std::vector<CmpSimResult> got = runCmpBatch(specs, kCycles);
        // The repeated run simulates once and is read back.
        EXPECT_EQ(cache.stats().misses, distinct.size());
        EXPECT_EQ(cache.stats().memoryHits, 1u);
        ASSERT_EQ(got.size(), specs.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(countersOf(got[i]), expected[i])
                << i << " at " << threads << " threads";
    }
}

TEST(CmpBatch, OnlyUncachedMembersOfASetSimulate)
{
    MemoryOnlyCache memory_only;
    constexpr uint64_t kCycles = 20000;
    const std::vector<CmpRunSpec> specs =
        fig5Cell(CmpConfig::lean(), "Ocean", 9);
    std::vector<Counters> truth;
    for (const CmpRunSpec &spec : specs)
        truth.push_back(soloRun(spec, kCycles));

    // Runs 1 and 3 are cached, run 4 holds a record of another width;
    // runs 0 and 2 are not cached at all.
    ResultCache &cache = resultCache();
    cache.clearMemory();
    runCmpBatch({specs[1], specs[3]}, kCycles);
    cache.store(cmpRunCacheKey(specs[4], kCycles),
                ResultCache::Record{{1, 2, 3}, {}});
    cache.resetStats();
    const std::vector<CmpSimResult> got = runCmpBatch(specs, kCycles);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().memoryHits, 3u);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(countersOf(got[i]), truth[i]) << i;

    // Every run, the recomputed one included, now replays its counters.
    cache.resetStats();
    const std::vector<CmpSimResult> again = runCmpBatch(specs, kCycles);
    EXPECT_EQ(cache.stats().memoryHits, specs.size());
    EXPECT_EQ(cache.stats().corrupt, 0u);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(countersOf(again[i]), truth[i]) << i;
}

TEST(CmpBatch, KeyCoversEveryField)
{
    const CmpRunSpec base{CmpConfig::fat(), workloadByName("OLTP"),
                          ProtectionConfig::none(), 42};
    const uint64_t cycles = 150000;
    using Mutation = std::function<void(CmpRunSpec &, uint64_t &)>;
    const std::vector<Mutation> mutations = {
        [](CmpRunSpec &s, uint64_t &) { s.machine.name = "other"; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.cores; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.issueWidth; },
        [](CmpRunSpec &s, uint64_t &) { s.machine.outOfOrder = false; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.threadsPerCore; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.robSize; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.storeQueue; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.l1Ports; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.l1HitLatency; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.l2Banks; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.l2HitLatency; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.l2BankBusy; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.loadUseSlots; },
        [](CmpRunSpec &s, uint64_t &) { s.machine.bubbleScale += 0.5; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.stealWindow; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.memLatency; },
        [](CmpRunSpec &s, uint64_t &) { ++s.machine.mshrs; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.name = "other"; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.loadFrac += 0.01; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.storeFrac += 0.01; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.l1iMissRate += 0.01; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.l1dMissRate += 0.01; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.l2MissRate += 0.01; },
        [](CmpRunSpec &s, uint64_t &) {
            s.workload.dirtyEvictFrac += 0.01;
        },
        [](CmpRunSpec &s, uint64_t &) {
            s.workload.dirtySharedFrac += 0.01;
        },
        [](CmpRunSpec &s, uint64_t &) {
            s.workload.ilpBubbleProb += 0.01;
        },
        [](CmpRunSpec &s, uint64_t &) { s.workload.burstOnProb += 0.01; },
        [](CmpRunSpec &s, uint64_t &) { s.workload.burstOffProb += 0.01; },
        [](CmpRunSpec &s, uint64_t &) {
            s.workload.burstLoadBoost += 0.01;
        },
        [](CmpRunSpec &s, uint64_t &) {
            s.workload.scientific = !s.workload.scientific;
        },
        [](CmpRunSpec &s, uint64_t &) { s.protection.l1TwoDim = true; },
        [](CmpRunSpec &s, uint64_t &) {
            s.protection.l1PortStealing = true;
        },
        [](CmpRunSpec &s, uint64_t &) { s.protection.l2TwoDim = true; },
        [](CmpRunSpec &s, uint64_t &) {
            s.protection.l1WriteThrough = true;
        },
        [](CmpRunSpec &s, uint64_t &) { ++s.seed; },
        [](CmpRunSpec &, uint64_t &c) { ++c; },
    };

    std::set<std::string> keys = {cmpRunCacheKey(base, cycles)};
    for (size_t i = 0; i < mutations.size(); ++i) {
        CmpRunSpec spec = base;
        uint64_t c = cycles;
        mutations[i](spec, c);
        ASSERT_FALSE(spec == base && c == cycles) << "mutation " << i;
        EXPECT_TRUE(keys.insert(cmpRunCacheKey(spec, c)).second)
            << "mutation " << i << " aliases another key";
    }
    // Equal specs share a key, and the salt leads it.
    EXPECT_EQ(cmpRunCacheKey(base, cycles), cmpRunCacheKey(base, cycles));
    EXPECT_EQ(cmpRunCacheKey(base, cycles).rfind(
                  "cmp/v" + std::to_string(kCmpRecordVersion) + "|", 0),
              0u);
}

TEST(CmpBatch, ForeignWidthRecordIsRecomputed)
{
    MemoryOnlyCache memory_only;
    constexpr uint64_t kCycles = 5000;
    const CmpRunSpec spec{CmpConfig::lean(), workloadByName("Ocean"),
                          ProtectionConfig::full(true), 3};
    CmpSimulator sim(spec.machine, spec.workload, spec.protection,
                     spec.seed);
    const Counters truth = countersOf(sim.run(kCycles));

    ResultCache &cache = resultCache();
    const std::string key = cmpRunCacheKey(spec, kCycles);
    cache.store(key, ResultCache::Record{{1, 2, 3, 4}, {}});
    cache.resetStats();
    const std::vector<CmpSimResult> got = runCmpBatch({spec}, kCycles);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(countersOf(got[0]), truth);
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // The foreign record was overwritten with the true counters.
    const std::optional<ResultCache::Record> rec = cache.lookup(key);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->ints.size(), truth.size());
    EXPECT_EQ(countersOf(runCmpBatch({spec}, kCycles)[0]), truth);
}

} // namespace
} // namespace tdc
