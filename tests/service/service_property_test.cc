/**
 * @file
 * The property layer pinning the concurrent service to a serial
 * single-shard oracle: an independent, straight-line reimplementation
 * of the documented shard semantics (partition by address mod shards,
 * per-shard clamped clock, RBW port stealing, round-robin scrub,
 * injection-domain fault streams, golden-value classification). For
 * every generator shape the sharded parallel service must match the
 * oracle EXACTLY — final store statistics, every reliability counter,
 * the full latency histogram, and every per-request outcome — and
 * faults that scrub repaired must never surface in later reads.
 *
 * The oracle deliberately shares no code with src/service; if either
 * side drifts from the documented contract, this suite fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "array/fault.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/port_scheduler.hh"
#include "core/twod_array.hh"
#include "service/cache_service.hh"
#include "service/request_gen.hh"

#include "recorded_serve.hh"

namespace tdc
{
namespace
{

/** Serial oracle for ONE shard, mirroring the documented contract. */
class ShardOracle
{
  public:
    ShardOracle(const ServiceConfig &cfg, size_t shard)
        : cfg(cfg), sched(cfg.ports, cfg.stealWindow),
          base(shardSeed(cfg.seed, shard))
    {
        for (size_t b = 0; b < cfg.banksPerShard; ++b)
            banks.push_back(std::make_unique<TwoDimArray>(cfg.bank));
        const size_t words =
            cfg.banksPerShard * cfg.bank.dataRows * slots();
        golden.assign(words, 0);
        written.assign(words, 0);
    }

    RequestOutcome
    serve(const ServiceRequest &req)
    {
        const uint64_t t = std::max(req.tick, clock);
        background(t);
        sched.advanceTo(t);
        clock = t;

        ++counters.requests;
        RequestOutcome out;
        uint64_t latency = 0;
        const size_t local = req.address / cfg.shards;
        if (req.op == RequestOp::kRead) {
            ++counters.reads;
            const unsigned delay = sched.issueDemand();
            counters.portDelay += delay;
            uint64_t sweep = 0;
            const AccessResult res = read(local, sweep);
            counters.recoveryRowReads += sweep;
            latency = kLatency + delay + sweep;
            out.status = res.status;
            if (!res.ok()) {
                ++counters.due;
            } else {
                const BitVector expect =
                    written[local]
                        ? expandValue(golden[local], cfg.bank.wordBits)
                        : BitVector(cfg.bank.wordBits);
                if (res.data != expect) {
                    out.silent = true;
                    ++counters.sdc;
                } else if (res.status == DecodeStatus::kCorrected ||
                           sweep != 0) {
                    ++counters.corrected;
                }
            }
        } else {
            ++counters.writes;
            if (sched.issueStolenRead() == 0)
                ++counters.rbwAbsorbed;
            else
                ++counters.rbwCharged;
            const unsigned delay = sched.issueDemand();
            counters.portDelay += delay;
            latency = kLatency + delay;
            auto [bank, row, slot] = at(local);
            bank.writeWord(row, slot,
                           expandValue(req.value, cfg.bank.wordBits));
            golden[local] = req.value;
            written[local] = 1;
        }
        latency_hist.add(latency);
        out.latency = uint32_t(std::min<uint64_t>(latency, 0xffffffffULL));
        return out;
    }

    ShardServiceReport
    report()
    {
        ShardServiceReport rep;
        rep.counters = counters;
        rep.latency = latency_hist;
        for (const auto &bank : banks)
            rep.store += bank->stats();
        return rep;
    }

  private:
    /** Base read and write latency, cycles. */
    static constexpr unsigned kLatency = 2;

    size_t slots() const { return cfg.bank.interleaveDegree; }

    /** Bank, row and slot of shard-local word @p local: words
     *  interleave across banks. */
    std::tuple<TwoDimArray &, size_t, size_t>
    at(size_t local)
    {
        const size_t in_bank = local / cfg.banksPerShard;
        return {*banks[local % cfg.banksPerShard], in_bank / slots(),
                in_bank % slots()};
    }

    AccessResult
    read(size_t local, uint64_t &sweep)
    {
        auto [bank, row, slot] = at(local);
        const uint64_t before = bank.stats().recoveries;
        const AccessResult res = bank.readWord(row, slot);
        if (bank.stats().recoveries != before) {
            ++counters.recoveries;
            sweep = bank.lastRecovery().rowReads;
        }
        return res;
    }

    void
    background(uint64_t t)
    {
        while (true) {
            const uint64_t scrub_at =
                cfg.scrubInterval == 0
                    ? UINT64_MAX
                    : (scrub_steps + 1) * cfg.scrubInterval;
            const uint64_t fault_at =
                cfg.faultInterval == 0
                    ? UINT64_MAX
                    : (fault_events + 1) * cfg.faultInterval;
            if (scrub_at > t && fault_at > t)
                return;
            if (scrub_at <= fault_at)
                scrub(scrub_at);
            else
                fault(fault_at);
        }
    }

    void
    scrub(uint64_t tick)
    {
        sched.advanceTo(std::max(tick, clock));
        clock = std::max(tick, clock);
        ++scrub_steps;
        ++counters.scrubSteps;
        const size_t rows = cfg.bank.dataRows;
        const size_t global =
            (scrub_steps - 1) % (cfg.banksPerShard * rows);
        const size_t bank = global / rows, row = global % rows;
        for (size_t slot = 0; slot < slots(); ++slot) {
            sched.issueStolenRead();
            const size_t local =
                (row * slots() + slot) * cfg.banksPerShard + bank;
            uint64_t sweep = 0;
            const AccessResult res = read(local, sweep);
            if (!res.ok())
                ++counters.scrubDue;
            else if (res.status == DecodeStatus::kCorrected || sweep != 0)
                ++counters.scrubRepairs;
        }
    }

    void
    fault(uint64_t tick)
    {
        sched.advanceTo(std::max(tick, clock));
        clock = std::max(tick, clock);
        Rng rng(shardSeed(base, kSeedDomainInjection, fault_events));
        ++fault_events;
        ++counters.faultEvents;
        FaultInjector inj(rng);
        const size_t bank = size_t(rng.nextBelow(cfg.banksPerShard));
        inj.inject(banks[bank]->cells(), cfg.fault);
    }

    const ServiceConfig &cfg;
    std::vector<std::unique_ptr<TwoDimArray>> banks;
    PortScheduler sched;
    uint64_t base;
    uint64_t clock = 0;
    uint64_t scrub_steps = 0;
    uint64_t fault_events = 0;
    std::vector<uint64_t> golden;
    std::vector<char> written;
    ServiceCounters counters;
    LatencyHistogram latency_hist;
};

/** Serve @p requests through per-shard serial oracles. */
RecordedServe
oracleServe(const ServiceConfig &cfg,
            const std::vector<ServiceRequest> &requests)
{
    std::vector<std::unique_ptr<ShardOracle>> oracles;
    oracles.reserve(cfg.shards);
    for (size_t s = 0; s < cfg.shards; ++s)
        oracles.push_back(std::make_unique<ShardOracle>(cfg, s));

    RecordedServe recorded;
    ServiceReport &report = recorded.report;
    recorded.outcomes.resize(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        recorded.outcomes[i] =
            oracles[requests[i].address % cfg.shards]->serve(requests[i]);

    for (size_t s = 0; s < cfg.shards; ++s) {
        report.shards.push_back(oracles[s]->report());
        report.total.counters += report.shards.back().counters;
        report.total.latency += report.shards.back().latency;
        report.total.store += report.shards.back().store;
    }
    for (const ServiceRequest &r : requests)
        report.ticks = std::max(report.ticks, r.tick + 1);
    return recorded;
}

ServiceConfig
propertyConfig()
{
    ServiceConfig cfg;
    cfg.bank.dataRows = 32;
    cfg.bank.verticalParityRows = 8;
    cfg.banksPerShard = 2;
    cfg.shards = 3; // deliberately not a power of two
    cfg.seed = 0xC0FFEEu;
    return cfg;
}

void
expectMatchesOracle(const ServiceConfig &cfg,
                    const std::vector<ServiceRequest> &requests)
{
    const RecordedServe served =
        serveRecorded(CacheService(cfg), requests);
    const RecordedServe oracle = oracleServe(cfg, requests);
    const ServiceReport &got = served.report;
    const ServiceReport &want = oracle.report;

    ASSERT_EQ(got.shards.size(), want.shards.size());
    for (size_t s = 0; s < got.shards.size(); ++s) {
        EXPECT_EQ(got.shards[s].counters, want.shards[s].counters)
            << "shard " << s;
        EXPECT_EQ(got.shards[s].latency, want.shards[s].latency)
            << "shard " << s;
        EXPECT_EQ(got.shards[s].store, want.shards[s].store)
            << "shard " << s;
    }
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.ticks, want.ticks);
    EXPECT_EQ(served.outcomes, oracle.outcomes);
}

TEST(ServiceProperty, UniformStreamMatchesTheSerialOracle)
{
    const ServiceConfig cfg = propertyConfig();
    expectMatchesOracle(
        cfg, buildRequests(parseRequestSpec("uniform/n6000/w40"),
                           cfg.totalWords(), 11));
}

TEST(ServiceProperty, ZipfStreamMatchesTheSerialOracle)
{
    const ServiceConfig cfg = propertyConfig();
    expectMatchesOracle(
        cfg, buildRequests(parseRequestSpec("zipf95/n6000/w40"),
                           cfg.totalWords(), 12));
}

TEST(ServiceProperty, BurstStreamWithBackgroundEventsMatchesTheOracle)
{
    ServiceConfig cfg = propertyConfig();
    cfg.scrubInterval = 7;
    cfg.faultInterval = 113;
    cfg.fault = FaultModel::singleBit();
    expectMatchesOracle(
        cfg, buildRequests(parseRequestSpec("burst16/n6000/w40/g96"),
                           cfg.totalWords(), 13));
}

TEST(ServiceProperty, MultiPortStolenWindowMatchesTheOracle)
{
    ServiceConfig cfg = propertyConfig();
    cfg.ports = 2;
    cfg.stealWindow = 3;
    cfg.scrubInterval = 19;
    expectMatchesOracle(
        cfg, buildRequests(parseRequestSpec("uniform/n4000/w70"),
                           cfg.totalWords(), 14));
}

TEST(ServiceProperty, StreamAcrossBlockBoundariesMatchesTheOracle)
{
    // The service reads its stream in blocks of kRequestBlock; the
    // oracle serves it whole. Shards keep their clocks, scrub cursors
    // and fault streams across blocks, with ticks that fall at every
    // burst start (gap shorter than the burst).
    ServiceConfig cfg = propertyConfig();
    cfg.scrubInterval = 23;
    cfg.faultInterval = 3001;
    RequestStreamSpec spec = parseRequestSpec("burst16/g8/w40");
    spec.count = 2 * kRequestBlock + 5;
    expectMatchesOracle(cfg, buildRequests(spec, cfg.totalWords(), 15));
}

TEST(ServiceProperty, ScrubRepairedFaultsStayInvisible)
{
    // The oracle replays the same injection streams, so any fault the
    // service scrubbed away must also be gone in the oracle — and
    // neither side may ever see it again in a later read. With
    // single-bit transients and a scrub period far shorter than the
    // fault period, both sides must agree AND read everything clean.
    ServiceConfig cfg = propertyConfig();
    cfg.scrubInterval = 5;
    cfg.faultInterval = 2000;
    cfg.fault = FaultModel::singleBit();

    std::vector<ServiceRequest> reqs;
    uint64_t tick = 0;
    for (size_t a = 0; a < cfg.totalWords(); ++a)
        reqs.push_back({tick++, RequestOp::kWrite, a, a * 3 + 1});
    for (int pass = 0; pass < 30; ++pass) {
        tick += 900;
        for (size_t a = 0; a < cfg.totalWords(); ++a)
            reqs.push_back({tick, RequestOp::kRead, a, 0});
    }
    expectMatchesOracle(cfg, reqs);

    const ServiceReport report = CacheService(cfg).serve(reqs);
    EXPECT_GT(report.total.counters.faultEvents, 10u);
    EXPECT_EQ(report.total.counters.due, 0u);
    EXPECT_EQ(report.total.counters.sdc, 0u);
}

} // namespace
} // namespace tdc
