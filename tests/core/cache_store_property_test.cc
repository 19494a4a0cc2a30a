/**
 * @file
 * Property-based suite for the whole-cache store: random clustered
 * injections (row bursts, column bursts, rectangles — several banks at
 * once) must always recover through the store's bank-parallel scrubAll
 * as long as every event stays within one bank's guaranteed coverage,
 * and the sweep must behave exactly like hand-driven per-bank
 * TwoDimArray oracles (same repaired data, same reports, same stats).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_cache_store.hh"

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

/** Fill store and per-bank oracles with identical random data. */
struct Mirror
{
    TwoDimCacheStore store;
    std::vector<std::unique_ptr<TwoDimArray>> oracle;
    std::vector<uint64_t> golden; ///< by flat word index

    Mirror(const TwoDimConfig &cfg, size_t banks, Rng &rng)
        : store(cfg, banks)
    {
        for (size_t b = 0; b < banks; ++b)
            oracle.push_back(std::make_unique<TwoDimArray>(cfg));
        const size_t slots = store.bank(0).wordsPerRow();
        golden.resize(store.totalWords());
        for (size_t w = 0; w < store.totalWords(); ++w) {
            golden[w] = rng.next();
            const BitVector v(64, golden[w]);
            store.writeWord(w, v);
            const size_t local = w / banks;
            oracle[w % banks]->writeWord(local / slots, local % slots, v);
        }
    }

    void verifyAllWordsMatchGolden()
    {
        for (size_t w = 0; w < store.totalWords(); ++w) {
            const AccessResult res = store.readWord(w);
            ASSERT_TRUE(res.ok()) << "word " << w;
            ASSERT_EQ(res.data.toUint64(), golden[w]) << "word " << w;
        }
    }
};

/** A random in-coverage fault event with a fully pinned footprint. */
FaultModel
randomCoveredFault(const TwoDimConfig &cfg, size_t row_bits, Rng &rng)
{
    const size_t wcov = cfg.clusterWidthCoverage();
    const size_t hcov = cfg.clusterHeightCoverage();
    FaultModel m;
    switch (rng.nextBelow(3)) {
      case 0:
        m = FaultModel::rowBurst(1 + rng.nextBelow(wcov));
        m.height = 1;
        break;
      case 1:
        m = FaultModel::columnBurst(1 + rng.nextBelow(hcov));
        m.width = 1;
        break;
      default:
        m = FaultModel::cluster(1 + rng.nextBelow(wcov),
                                1 + rng.nextBelow(hcov));
        break;
    }
    m.rowLo = long(rng.nextBelow(cfg.dataRows - m.height + 1));
    m.colLo = long(rng.nextBelow(row_bits - m.width + 1));
    return m;
}

/** Pick @p count distinct banks. */
std::vector<size_t>
distinctBanks(size_t banks, size_t count, Rng &rng)
{
    std::vector<size_t> all(banks);
    for (size_t b = 0; b < banks; ++b)
        all[b] = b;
    for (size_t i = 0; i < count; ++i)
        std::swap(all[i], all[i + rng.nextBelow(banks - i)]);
    all.resize(count);
    return all;
}

TEST(CacheStoreProperty, CoveredInjectionsAlwaysRecoverAndMatchOracles)
{
    Rng rng(0xC0FFEE);
    const TwoDimConfig cfg = smallBank();

    for (int iter = 0; iter < 24; ++iter) {
        const size_t banks = 2 + rng.nextBelow(3); // 2..4 banks
        Mirror m(cfg, banks, rng);
        const size_t row_bits = m.store.bank(0).cells().cols();

        // Simultaneous events in distinct banks: independently
        // correctable by construction (the paper's deployment claim).
        const size_t events = 1 + rng.nextBelow(banks);
        const std::vector<size_t> hit = distinctBanks(banks, events, rng);
        for (size_t b : hit) {
            const FaultModel fault = randomCoveredFault(cfg, row_bits,
                                                        rng);
            // Fully pinned footprint + solid density: the same event
            // lands identically in the store bank and its oracle.
            Rng store_rng(1), oracle_rng(1);
            FaultInjector store_inj(store_rng), oracle_inj(oracle_rng);
            store_inj.inject(m.store.bank(b).cells(), fault);
            oracle_inj.inject(m.oracle[b]->cells(), fault);
        }

        // The store's sweep must fully recover...
        EXPECT_TRUE(m.store.scrubAll()) << "iter " << iter;

        // ...and behave exactly like hand-driven per-bank oracles, hit
        // or not. (Stats are compared before the word-level
        // verification pass, which charges extra reads to the store.)
        for (size_t b = 0; b < banks; ++b) {
            EXPECT_TRUE(m.oracle[b]->scrub());
            const RecoveryReport &oracle_rep = m.oracle[b]->lastRecovery();
            const RecoveryReport &store_rep = m.store.bank(b).lastRecovery();
            EXPECT_EQ(store_rep.success, oracle_rep.success);
            EXPECT_EQ(store_rep.rowReads, oracle_rep.rowReads);
            EXPECT_EQ(store_rep.rowsReconstructed,
                      oracle_rep.rowsReconstructed);
            EXPECT_EQ(store_rep.columnsRepaired,
                      oracle_rep.columnsRepaired);
            EXPECT_EQ(m.store.bank(b).stats(), m.oracle[b]->stats());
        }
        m.verifyAllWordsMatchGolden();
    }
}

} // namespace
} // namespace tdc
