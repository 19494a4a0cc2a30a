/**
 * @file
 * Unit contract of the concurrent cache service: config validation
 * (the word cap included), address checking, read-your-writes,
 * port-stealing effect, background scrub repairing injected faults
 * before demand reads ever see them, and the per-request outcome
 * vector.
 */

#include <gtest/gtest.h>

#include "service/cache_service.hh"
#include "service/request_gen.hh"

namespace tdc
{
namespace
{

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.bank.dataRows = 32;
    cfg.bank.verticalParityRows = 8;
    cfg.banksPerShard = 2;
    cfg.shards = 2;
    return cfg;
}

TEST(CacheService, RejectsDegenerateConfigs)
{
    ServiceConfig cfg = smallConfig();
    cfg.shards = 0;
    EXPECT_THROW(CacheService{cfg}, std::invalid_argument);
    cfg = smallConfig();
    cfg.banksPerShard = 0;
    EXPECT_THROW(CacheService{cfg}, std::invalid_argument);
    cfg = smallConfig();
    cfg.ports = 0;
    EXPECT_THROW(CacheService{cfg}, std::invalid_argument);
    // 97 x 257 x 673 x 1 = 2^24 + 1 words, one over the cap.
    cfg = smallConfig();
    cfg.shards = 97;
    cfg.banksPerShard = 257;
    cfg.bank.dataRows = 673;
    cfg.bank.interleaveDegree = 1;
    ASSERT_EQ(cfg.totalWords(), ServiceConfig::kMaxTotalWords + 1);
    EXPECT_THROW(CacheService{cfg}, std::invalid_argument);
}

TEST(CacheService, RejectsOutOfRangeAddressesUpFront)
{
    const ServiceConfig cfg = smallConfig();
    const CacheService service(cfg);
    std::vector<ServiceRequest> reqs(3);
    reqs[1].address = cfg.totalWords(); // one past the end
    EXPECT_THROW(service.serve(reqs), std::out_of_range);
}

TEST(CacheService, ReadsReturnTheLastWrittenValue)
{
    ServiceConfig cfg = smallConfig();
    cfg.recordOutcomes = true;
    const CacheService service(cfg);

    // Write every word twice (two different values), then read all.
    std::vector<ServiceRequest> reqs;
    uint64_t tick = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t a = 0; a < cfg.totalWords(); ++a)
            reqs.push_back({tick++, RequestOp::kWrite, a,
                            0x1000u * (pass + 1) + a});
    }
    const size_t first_read = reqs.size();
    for (size_t a = 0; a < cfg.totalWords(); ++a)
        reqs.push_back({tick++, RequestOp::kRead, a, 0});

    const ServiceReport report = service.serve(reqs);
    EXPECT_EQ(report.total.counters.requests, reqs.size());
    EXPECT_EQ(report.total.counters.writes, 2 * cfg.totalWords());
    EXPECT_EQ(report.total.counters.reads, cfg.totalWords());
    // No faults anywhere: every read decodes clean against the last
    // write, nothing corrected, nothing lost.
    EXPECT_EQ(report.total.counters.sdc, 0u);
    EXPECT_EQ(report.total.counters.due, 0u);
    EXPECT_EQ(report.total.counters.corrected, 0u);
    ASSERT_EQ(report.outcomes.size(), reqs.size());
    for (size_t i = first_read; i < reqs.size(); ++i) {
        EXPECT_EQ(report.outcomes[i].status, DecodeStatus::kClean);
        EXPECT_FALSE(report.outcomes[i].silent);
    }
}

TEST(CacheService, UnwrittenWordsReadAsZeroClean)
{
    ServiceConfig cfg = smallConfig();
    cfg.recordOutcomes = true;
    const CacheService service(cfg);
    std::vector<ServiceRequest> reqs;
    for (size_t a = 0; a < cfg.totalWords(); ++a)
        reqs.push_back({a, RequestOp::kRead, a, 0});
    const ServiceReport report = service.serve(reqs);
    EXPECT_EQ(report.total.counters.sdc, 0u);
    EXPECT_EQ(report.total.counters.due, 0u);
}

TEST(CacheService, PortStealingAbsorbsRbwReadsUnderLightLoad)
{
    // One request every 4 ticks leaves plenty of idle slots: with a
    // steal window the RBW reads ride them; without one every RBW
    // read charges a demand slot and queues the write behind it.
    const auto run = [](unsigned window) {
        ServiceConfig cfg = smallConfig();
        cfg.stealWindow = window;
        std::vector<ServiceRequest> reqs;
        for (size_t i = 0; i < 500; ++i)
            reqs.push_back({i * 4, RequestOp::kWrite,
                            i % cfg.totalWords(), i});
        return CacheService(cfg).serve(reqs);
    };
    const ServiceReport stealing = run(8);
    // The very first write per shard has no idle history yet; all
    // later RBW reads must be absorbed.
    EXPECT_GE(stealing.total.counters.rbwAbsorbed, 496u);
    EXPECT_LE(stealing.total.counters.rbwCharged, 4u);

    const ServiceReport charged = run(0);
    EXPECT_EQ(charged.total.counters.rbwAbsorbed, 0u);
    EXPECT_EQ(charged.total.counters.rbwCharged, 500u);
    // Charged RBW reads queue in front of writes: latency suffers.
    EXPECT_GT(charged.total.latency.sum(), stealing.total.latency.sum());
}

TEST(CacheService, ScrubbedFaultsAreNeverVisibleToLaterReads)
{
    // Scrub sweeps a full shard (2 banks x 32 rows, one row per step,
    // every 5 ticks = 320-tick cycle) three times over between fault
    // arrivals (every 1000 ticks), so at most one single-bit transient
    // is ever outstanding per bank — and one is always recoverable.
    // No read in the entire run may be DUE or silent.
    ServiceConfig cfg = smallConfig();
    cfg.recordOutcomes = true;
    cfg.scrubInterval = 5;
    cfg.faultInterval = 1000;
    cfg.fault = FaultModel::singleBit();
    const CacheService service(cfg);

    std::vector<ServiceRequest> reqs;
    uint64_t tick = 0;
    for (size_t a = 0; a < cfg.totalWords(); ++a)
        reqs.push_back({tick++, RequestOp::kWrite, a, a + 7});
    for (int pass = 0; pass < 40; ++pass) {
        for (size_t a = 0; a < cfg.totalWords(); ++a)
            reqs.push_back({tick, RequestOp::kRead, a, 0});
        tick += 500; // long idle stretch: faults land, scrub cleans
    }

    const ServiceReport report = service.serve(reqs);
    EXPECT_GT(report.total.counters.faultEvents, 30u);
    EXPECT_GT(report.total.counters.scrubSteps, 1000u);
    EXPECT_EQ(report.total.counters.due, 0u);
    EXPECT_EQ(report.total.counters.sdc, 0u);
    for (const RequestOutcome &out : report.outcomes)
        EXPECT_FALSE(out.silent);
    // Something was actually repaired along the way (scrub or demand).
    EXPECT_GT(report.total.counters.scrubRepairs +
                  report.total.counters.corrected,
              0u);
}

TEST(CacheService, ThroughputCountsSimulatedTicksOnly)
{
    const ServiceConfig cfg = smallConfig();
    std::vector<ServiceRequest> reqs;
    for (size_t i = 0; i < 1000; ++i)
        reqs.push_back({i, RequestOp::kRead, i % cfg.totalWords(), 0});
    const ServiceReport report = CacheService(cfg).serve(reqs);
    EXPECT_EQ(report.ticks, 1000u);
    EXPECT_EQ(report.throughputPerKTick(), 1000.0);
}

TEST(CacheService, TablesCarryOneRowPerShardPlusTotal)
{
    const ServiceConfig cfg = smallConfig();
    std::vector<ServiceRequest> reqs;
    for (size_t i = 0; i < 64; ++i)
        reqs.push_back({i, RequestOp::kWrite, i % cfg.totalWords(), i});
    const ServiceReport report = CacheService(cfg).serve(reqs);
    EXPECT_EQ(serviceLatencyTable(report).data().size(), cfg.shards + 1);
    EXPECT_EQ(serviceReliabilityTable(report).data().size(),
              cfg.shards + 1);
}

} // namespace
} // namespace tdc
