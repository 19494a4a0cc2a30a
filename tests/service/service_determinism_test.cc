/**
 * @file
 * The service determinism pins: one reference run, then the whole
 * report — every counter, every latency bin, every per-request
 * outcome, every per-shard store statistic — must be bit-identical at
 * TDC_THREADS = 1, 2, 4, and 8, for generated streams and for a trace
 * recorded and replayed through the binary format. A seed change must
 * change the outcome (the pins must actually pin something).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/parallel.hh"
#include "service/cache_service.hh"
#include "service/request_gen.hh"

#include "recorded_serve.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

ServiceConfig
pinnedConfig()
{
    ServiceConfig cfg;
    cfg.bank.dataRows = 64;
    cfg.bank.verticalParityRows = 16;
    cfg.banksPerShard = 4;
    cfg.shards = 4;
    cfg.stealWindow = 8;
    cfg.scrubInterval = 11;
    cfg.faultInterval = 401;
    cfg.seed = 2026;
    return cfg;
}

void
expectIdenticalAcrossThreadCounts(const ServiceConfig &cfg,
                                  const std::vector<ServiceRequest> &reqs)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const RecordedServe reference = serveRecorded(CacheService(cfg), reqs);
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(serveRecorded(CacheService(cfg), reqs), reference)
            << "TDC_THREADS=" << threads;
    }
}

TEST(ServiceDeterminism, UniformStreamIsThreadCountInvariant)
{
    const ServiceConfig cfg = pinnedConfig();
    expectIdenticalAcrossThreadCounts(
        cfg, buildRequests(parseRequestSpec("uniform/n20000/w30"),
                           cfg.totalWords(), cfg.seed));
}

TEST(ServiceDeterminism, ZipfStreamIsThreadCountInvariant)
{
    const ServiceConfig cfg = pinnedConfig();
    expectIdenticalAcrossThreadCounts(
        cfg, buildRequests(parseRequestSpec("zipf90/n20000/w30"),
                           cfg.totalWords(), cfg.seed));
}

TEST(ServiceDeterminism, BurstStreamIsThreadCountInvariant)
{
    const ServiceConfig cfg = pinnedConfig();
    expectIdenticalAcrossThreadCounts(
        cfg, buildRequests(parseRequestSpec("burst64/n20000/w30"),
                           cfg.totalWords(), cfg.seed));
}

TEST(ServiceDeterminism, RecordedTraceReplaysBitIdentically)
{
    // Generate -> record -> load -> the loaded stream is byte-equal,
    // and serving the replayed trace reproduces the generated run's
    // report exactly, across thread counts.
    ThreadGuard guard;
    const ServiceConfig cfg = pinnedConfig();
    const std::vector<ServiceRequest> generated =
        buildRequests(parseRequestSpec("zipf85/n15000/w40"),
                      cfg.totalWords(), cfg.seed);

    const std::string path =
        testing::TempDir() + "tdc_service_replay.bin";
    writeTrace(path, generated);
    RequestStreamSpec replay;
    replay.dist = RequestDist::kTrace;
    replay.tracePath = path;
    const std::vector<ServiceRequest> loaded =
        buildRequests(replay, 0, 0); // words/seed ignored for traces
    ASSERT_EQ(loaded, generated);

    setParallelThreads(1);
    const RecordedServe reference =
        serveRecorded(CacheService(cfg), generated);
    for (unsigned threads : {1u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(serveRecorded(CacheService(cfg), loaded), reference)
            << "TDC_THREADS=" << threads;
    }
    std::remove(path.c_str());
}

TEST(ServiceDeterminism, SeedActuallyMatters)
{
    const ServiceConfig cfg = pinnedConfig();
    const std::vector<ServiceRequest> reqs =
        buildRequests(parseRequestSpec("uniform/n5000/w30"),
                      cfg.totalWords(), cfg.seed);
    ServiceConfig other = cfg;
    other.seed = cfg.seed + 1;
    // Same request stream, different service seed: the background
    // fault events differ, so the reports must differ.
    EXPECT_NE(serveRecorded(CacheService(cfg), reqs),
              serveRecorded(CacheService(other), reqs));
}

TEST(ServiceDeterminism, RepeatedRunsAreIdentical)
{
    const ServiceConfig cfg = pinnedConfig();
    const std::vector<ServiceRequest> reqs =
        buildRequests(parseRequestSpec("burst32/n8000/w50/g256"),
                      cfg.totalWords(), 7);
    const CacheService service(cfg);
    EXPECT_EQ(serveRecorded(service, reqs), serveRecorded(service, reqs));
}

} // namespace
} // namespace tdc
