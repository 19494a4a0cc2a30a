#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "array/fault.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/twod_cache_store.hh"

#include "../array/changed_cells.hh"

namespace tdc
{
namespace
{

TwoDimConfig
smallBank()
{
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.dataRows = 32;
    cfg.verticalParityRows = 8;
    return cfg;
}

TEST(TwoDimCacheStore, ZeroBankConstructionThrows)
{
    // Regression: storageOverhead() (and every other bankArray[0]
    // accessor) used to dereference an empty bank vector when the
    // store was built with zero banks; construction now refuses.
    EXPECT_THROW(TwoDimCacheStore(smallBank(), 0), std::invalid_argument);
}

TEST(TwoDimCacheStore, Geometry)
{
    TwoDimCacheStore store(smallBank(), 4);
    EXPECT_EQ(store.banks(), 4u);
    EXPECT_EQ(store.wordsPerBank(), 32u * 4);
    EXPECT_EQ(store.totalWords(), 512u);
    EXPECT_EQ(store.dataBits(), 64u);
}

TEST(TwoDimCacheStore, WordsInterleaveAcrossBanks)
{
    TwoDimCacheStore store(smallBank(), 4);
    for (size_t w = 0; w < 16; ++w)
        EXPECT_EQ(store.bankOf(w), w % 4);
}

TEST(TwoDimCacheStore, RoundTripAllWords)
{
    Rng rng(11);
    TwoDimCacheStore store(smallBank(), 4);
    std::vector<uint64_t> golden(store.totalWords());
    for (size_t w = 0; w < store.totalWords(); ++w) {
        golden[w] = rng.next();
        store.writeWord(w, BitVector(64, golden[w]));
    }
    for (size_t w = 0; w < store.totalWords(); ++w) {
        AccessResult res = store.readWord(w);
        ASSERT_TRUE(res.ok());
        ASSERT_EQ(res.data.toUint64(), golden[w]);
    }
}

TEST(TwoDimCacheStore, DistinctWordsMapToDistinctCells)
{
    // Writing one word must not disturb any other word.
    Rng rng(12);
    TwoDimCacheStore store(smallBank(), 2);
    std::vector<uint64_t> golden(store.totalWords());
    for (size_t w = 0; w < store.totalWords(); ++w) {
        golden[w] = rng.next();
        store.writeWord(w, BitVector(64, golden[w]));
    }
    store.writeWord(37, BitVector(64, uint64_t(0xABCD)));
    golden[37] = 0xABCD;
    for (size_t w = 0; w < store.totalWords(); ++w)
        ASSERT_EQ(store.readWord(w).data.toUint64(), golden[w]);
}

TEST(TwoDimCacheStore, SimultaneousEventsInDifferentBanksRecover)
{
    // Each bank has its own vertical parity: clusters in two banks at
    // once are independently correctable.
    Rng rng(13);
    TwoDimCacheStore store(smallBank(), 4);
    std::vector<uint64_t> golden(store.totalWords());
    for (size_t w = 0; w < store.totalWords(); ++w) {
        golden[w] = rng.next();
        store.writeWord(w, BitVector(64, golden[w]));
    }
    FaultInjector inj(rng);
    inj.inject(store.bank(0).cells(), FaultModel::cluster(32, 8));
    inj.inject(store.bank(2).cells(), FaultModel::cluster(16, 4));

    EXPECT_TRUE(store.scrubAll());
    for (size_t w = 0; w < store.totalWords(); ++w)
        ASSERT_EQ(store.readWord(w).data.toUint64(), golden[w]);
}

TEST(TwoDimCacheStore, AggregateStatsSumBanks)
{
    TwoDimCacheStore store(smallBank(), 4);
    for (size_t w = 0; w < store.totalWords(); ++w)
        store.writeWord(w, BitVector(64, w));
    const TwoDimStats s = store.aggregateStats();
    EXPECT_EQ(s.writes, store.totalWords());
    EXPECT_EQ(s.readBeforeWrites, store.totalWords());
}

TEST(TwoDimCacheStore, BatchSweepsBitIdenticalAtEveryThreadCount)
{
    struct ThreadGuard
    {
        ~ThreadGuard() { setParallelThreads(0); }
    } guard;

    // One deterministic scenario, re-run at every pool size: same
    // repaired words, same per-bank recovery reports, same stats.
    const auto scenario = [] {
        Rng rng(17);
        TwoDimCacheStore store(smallBank(), 4);
        for (size_t w = 0; w < store.totalWords(); ++w)
            store.writeWord(w, BitVector(64, rng.next()));
        FaultInjector inj(rng);
        inj.inject(store.bank(0).cells(), FaultModel::cluster(32, 8));
        inj.inject(store.bank(1).cells(), FaultModel::cluster(8, 8));
        inj.inject(store.bank(3).cells(), FaultModel::rowBurst(16));
        const bool scrubbed = store.scrubAll();
        std::vector<uint64_t> row_reads;
        for (size_t b = 0; b < store.banks(); ++b)
            row_reads.push_back(store.bank(b).lastRecovery().rowReads);
        std::vector<uint64_t> words;
        for (size_t w = 0; w < store.totalWords(); ++w)
            words.push_back(store.readWord(w).data.toUint64());
        return std::tuple(scrubbed, std::move(row_reads),
                          store.aggregateStats(), std::move(words));
    };

    setParallelThreads(1);
    const auto serial = scenario();
    EXPECT_TRUE(std::get<0>(serial));
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(scenario(), serial) << threads << " threads";
    }
}

TEST(TwoDimCacheStore, InjectionStreamsLiveInTheirOwnSeedDomain)
{
    // Regression for the seed-stream collision bug class: per-event
    // fault injection (the lifetime engine, the cache service's fault
    // pressure) used to draw from the *un-domained* stream
    // shardSeed(seed, i) — the very stream any other per-event
    // consumer of the same campaign seed (scrub scheduling, service
    // traffic) naturally counts through, so "independent" random
    // choices were byte-identical. Events must come from the
    // injection-domain namespace instead.
    const uint64_t seed = 0xD00D;
    for (uint64_t i = 0; i < 64; ++i) {
        EXPECT_NE(shardSeed(seed, kSeedDomainInjection, i),
                  shardSeed(seed, i))
            << "event " << i << " collides with the legacy stream";
        EXPECT_NE(shardSeed(seed, kSeedDomainInjection, i),
                  shardSeed(seed, kSeedDomainScrub, i))
            << "event " << i << " collides with the scrub domain";
    }

    // The two namespaces really pick different cells for the same
    // single-bit event on a store bank.
    TwoDimCacheStore store(smallBank(), 2);
    const MemoryArray blank = store.bank(0).cells();
    const FaultModel single = FaultModel::singleBit();
    Rng domain_rng(shardSeed(seed, kSeedDomainInjection, 0));
    FaultInjector(domain_rng).inject(store.bank(0).cells(), single);
    Rng legacy_rng(shardSeed(seed, 0));
    FaultInjector(legacy_rng).inject(store.bank(1).cells(), single);
    EXPECT_NE(changedCells(blank, store.bank(0).cells()),
              changedCells(blank, store.bank(1).cells()))
        << "injection still draws from the legacy counter namespace";
}

TEST(TwoDimCacheStore, FailureInOneBankDoesNotAffectOthers)
{
    Rng rng(14);
    TwoDimCacheStore store(smallBank(), 2);
    std::vector<uint64_t> golden(store.totalWords());
    for (size_t w = 0; w < store.totalWords(); ++w) {
        golden[w] = rng.next();
        store.writeWord(w, BitVector(64, golden[w]));
    }
    // Beyond-coverage damage in bank 0 (16x16 solid on V=8 bank).
    FaultInjector inj(rng);
    inj.inject(store.bank(0).cells(), {.shape = FaultShape::kCluster,
                                       .width = 16,
                                       .height = 16,
                                       .rowLo = 0,
                                       .colLo = 0});
    EXPECT_FALSE(store.scrubAll());
    // Bank 1's words all still read correctly.
    for (size_t w = 1; w < store.totalWords(); w += 2)
        ASSERT_EQ(store.readWord(w).data.toUint64(), golden[w]);
}

} // namespace
} // namespace tdc
