/**
 * @file
 * google-benchmark harness of the concurrent cache service: sustained
 * request throughput of the sharded serving loop under each generator
 * shape, the port-stealing fast path, background scrub + online fault
 * pressure, the trace codec, and a recorded trace replayed through
 * the block-reading file source. Wall-clock only — every simulated
 * metric (latency percentiles, reliability verdicts) is pinned by the
 * determinism tests instead, so the two never mix.
 *
 * Recorded as the BENCH_0006_service.json trajectory via
 *   bench/record_bench.sh --bench bench_service \
 *       --out BENCH_0006_service.json <label>
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/parallel.hh"
#include "service/cache_service.hh"
#include "service/request_gen.hh"

using namespace tdc;

namespace
{

ServiceConfig
serviceConfig(size_t shards)
{
    ServiceConfig cfg;
    cfg.bank.dataRows = 64;
    cfg.bank.verticalParityRows = 16;
    cfg.banksPerShard = 4;
    cfg.shards = shards;
    cfg.stealWindow = 8;
    return cfg;
}

std::vector<ServiceRequest>
stream(const std::string &spec, const ServiceConfig &cfg)
{
    return buildRequests(parseRequestSpec(spec), cfg.totalWords(), 42);
}

void
reportThroughput(benchmark::State &state, size_t requests)
{
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(requests));
}

/** Serve a 100k-request stream; arg = shard count. */
void
BM_ServeUniform(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(size_t(state.range(0)));
    const CacheService service(cfg);
    const std::vector<ServiceRequest> reqs =
        stream("uniform/n100000/w30", cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.serve(reqs));
    reportThroughput(state, reqs.size());
}
BENCHMARK(BM_ServeUniform)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ServeZipf(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(4);
    const CacheService service(cfg);
    const std::vector<ServiceRequest> reqs =
        stream("zipf90/n100000/w30", cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.serve(reqs));
    reportThroughput(state, reqs.size());
}
BENCHMARK(BM_ServeZipf)->Unit(benchmark::kMillisecond);

void
BM_ServeBurstWithBackgroundEvents(benchmark::State &state)
{
    ServiceConfig cfg = serviceConfig(4);
    cfg.scrubInterval = 64;
    cfg.faultInterval = 4096;
    const CacheService service(cfg);
    const std::vector<ServiceRequest> reqs =
        stream("burst64/n100000/w30", cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.serve(reqs));
    reportThroughput(state, reqs.size());
}
BENCHMARK(BM_ServeBurstWithBackgroundEvents)
    ->Unit(benchmark::kMillisecond);

/** The acceptance-scale run: one million requests over four shards. */
void
BM_ServeMillionRequests(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(4);
    const CacheService service(cfg);
    const std::vector<ServiceRequest> reqs =
        stream("uniform/n1e6/w30", cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.serve(reqs));
    reportThroughput(state, reqs.size());
}
BENCHMARK(BM_ServeMillionRequests)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_GenerateRequests(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream("zipf90/n100000/w30", cfg));
    reportThroughput(state, 100000);
}
BENCHMARK(BM_GenerateRequests)->Unit(benchmark::kMillisecond);

void
BM_TraceRoundTrip(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(4);
    const std::vector<ServiceRequest> reqs =
        stream("uniform/n100000/w30", cfg);
    for (auto _ : state) {
        std::ostringstream out;
        writeTrace(out, reqs);
        std::istringstream in(out.str());
        benchmark::DoNotOptimize(readTrace(in));
    }
    reportThroughput(state, reqs.size());
}
BENCHMARK(BM_TraceRoundTrip)->Unit(benchmark::kMillisecond);

/**
 * Replay a recorded one-million-request trace through TraceReader: the
 * file is read block by block (a validation pass, then the serving
 * pass), as `tdc_run --serve trace:<path>` does.
 */
void
BM_ServeTraceReplay(benchmark::State &state)
{
    const ServiceConfig cfg = serviceConfig(4);
    const CacheService service(cfg);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "bench_service_replay.trace")
            .string();
    writeTrace(path, stream("uniform/n1e6/w30", cfg));
    TraceReader source(path);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.serve(source));
    reportThroughput(state, source.size());
    std::remove(path.c_str());
}
BENCHMARK(BM_ServeTraceReplay)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
