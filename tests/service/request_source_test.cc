/**
 * @file
 * The block path of the service: serving a RequestSource one block at
 * a time must equal serving the same stream drained into a vector,
 * outcomes included, at TDC_THREADS 1 and 4, for stream lengths on
 * and around the block size; the one serving pass must report the tick
 * span (largest tick + 1) for streams whose ticks are not monotone;
 * and a trace's format errors must still come before its address
 * errors, as when a trace was loaded whole before serving.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

constexpr size_t kB = kRequestBlock;

ServiceConfig
blockConfig()
{
    ServiceConfig cfg;
    cfg.bank.dataRows = 32;
    cfg.bank.verticalParityRows = 8;
    cfg.banksPerShard = 2;
    cfg.shards = 3; // not a power of two
    cfg.scrubInterval = 29;
    cfg.faultInterval = 4099;
    cfg.seed = 0xB10C;
    return cfg;
}

const std::vector<size_t> kLengths = {0, 1, kB - 1, kB, kB + 1, 3 * kB + 7};

uint64_t
maxTickPlusOne(const std::vector<ServiceRequest> &requests)
{
    uint64_t ticks = 0;
    for (const ServiceRequest &r : requests)
        ticks = std::max(ticks, r.tick + 1);
    return ticks;
}

/** A stream whose ticks fall: request i arrives at tick n - i. */
std::vector<ServiceRequest>
fallingTicks(size_t n, size_t words)
{
    std::vector<ServiceRequest> requests(n);
    for (size_t i = 0; i < n; ++i) {
        requests[i].tick = n - i;
        requests[i].op = i % 3 == 0 ? RequestOp::kWrite : RequestOp::kRead;
        requests[i].address = (i * 7919) % words;
        requests[i].value = i * 0x9e3779b97f4a7c15ULL;
    }
    return requests;
}

/** A fresh source over the same stream at every call. */
using SourceOpener = std::function<std::unique_ptr<RequestSource>()>;

/** serve(source) == serve(its drained vector) at 1 and 4 threads, and
 *  report.ticks is the span. */
void
expectSourceMatchesVector(const ServiceConfig &cfg, const SourceOpener &open,
                          const std::string &what)
{
    ThreadGuard guard;
    const std::vector<ServiceRequest> requests = drainRequests(*open());
    const CacheService service(cfg);
    setParallelThreads(1);
    const RecordedServe reference = serveRecorded(service, requests);
    EXPECT_EQ(reference.report.ticks, maxTickPlusOne(requests)) << what;
    EXPECT_EQ(reference.outcomes.size(), requests.size()) << what;
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        const std::unique_ptr<RequestSource> source = open();
        ASSERT_EQ(source->size(), requests.size()) << what;
        EXPECT_EQ(serveRecorded(service, *source), reference)
            << what << " TDC_THREADS=" << threads;
    }
}

TEST(RequestSource, GeneratedStreamsServeLikeTheirVectors)
{
    const ServiceConfig cfg = blockConfig();
    for (const char *shape : {"uniform/w40", "burst16/g8/w40"}) {
        for (size_t n : kLengths) {
            RequestStreamSpec spec = parseRequestSpec(shape);
            spec.count = n;
            expectSourceMatchesVector(
                cfg,
                [&] {
                    return std::make_unique<RequestGenerator>(
                        spec, cfg.totalWords(), 77);
                },
                std::string(shape) + " n=" + std::to_string(n));
        }
    }
}

TEST(RequestSource, TraceWithFallingTicksServesLikeItsVector)
{
    const ServiceConfig cfg = blockConfig();
    const std::string path = testing::TempDir() + "tdc_falling_ticks.bin";
    for (size_t n : kLengths) {
        const std::vector<ServiceRequest> requests =
            fallingTicks(n, cfg.totalWords());
        writeTrace(path, requests);
        expectSourceMatchesVector(
            cfg, [&] { return std::make_unique<TraceReader>(path); },
            "n=" + std::to_string(n));
        TraceReader source(path);
        EXPECT_TRUE(drainRequests(source) == requests) << "n=" << n;
    }
    std::remove(path.c_str());
}

TEST(RequestSource, BlocksNeverExceedTheBlockSize)
{
    RequestStreamSpec spec = parseRequestSpec("uniform");
    spec.count = 2 * kB + 3;
    RequestGenerator source(spec, 4096, 1);
    std::vector<size_t> sizes;
    for (auto block = source.next(); !block.empty(); block = source.next())
        sizes.push_back(block.size());
    EXPECT_EQ(sizes, (std::vector<size_t>{kB, kB, 3}));
}

TEST(RequestSource, ServedTicksAreTheLargestTickPlusOne)
{
    // serve() tracks the tick span in the pass that serves the stream;
    // bursts whose gap is shorter than the burst (ticks not monotone)
    // included.
    const ServiceConfig cfg = blockConfig();
    const CacheService service(cfg);
    for (const char *shape :
         {"uniform/n1", "uniform/n1000", "zipf90/n777", "burst16/n1/g8",
          "burst16/n15/g8", "burst16/n16/g8", "burst16/n17/g8",
          "burst16/n100/g8", "burst16/n100/g1", "burst16/n100/g16",
          "burst16/n100/g200", "burst64/n100000", "burst1/n9/g1"}) {
        const RequestStreamSpec spec = parseRequestSpec(shape);
        RequestGenerator source(spec, cfg.totalWords(), 5);
        RequestGenerator copy(spec, cfg.totalWords(), 5);
        EXPECT_EQ(service.serve(source).ticks,
                  maxTickPlusOne(drainRequests(copy)))
            << shape;
    }
}

TEST(RequestSource, GeneratorForALargerSpaceIsCheckedAddressByAddress)
{
    // A generator over more words than the service holds is served
    // until its first out-of-range request, which is named, and then
    // read to its end.
    const ServiceConfig cfg = blockConfig();
    const uint64_t words = cfg.totalWords();
    const RequestStreamSpec spec = parseRequestSpec("uniform/n100");
    RequestGenerator copy(spec, 1 << 20, 3);
    const std::vector<ServiceRequest> requests = drainRequests(copy);
    const auto bad = std::find_if(
        requests.begin(), requests.end(),
        [&](const ServiceRequest &r) { return r.address >= words; });
    ASSERT_NE(bad, requests.end());
    RequestGenerator source(spec, 1 << 20, 3);
    try {
        CacheService(cfg).serve(source);
        FAIL() << "accepted addresses past the service";
    } catch (const std::out_of_range &e) {
        EXPECT_EQ(std::string(e.what()),
                  "request \"" + std::to_string(bad - requests.begin()) +
                      "\" address \"" + std::to_string(bad->address) +
                      "\" >= " + std::to_string(words) +
                      " words of the service");
    }
    EXPECT_TRUE(source.next().empty()) << "the stream was not read on";
}

std::string
traceBytes(const std::vector<ServiceRequest> &requests)
{
    std::ostringstream out;
    writeTrace(out, requests);
    return out.str();
}

/** The error the service reports for a trace image, as text. */
std::string
serveError(const std::string &bytes)
{
    ServiceConfig cfg = blockConfig();
    std::istringstream in(bytes);
    try {
        TraceReader source(in);
        CacheService(cfg).serve(source);
    } catch (const std::invalid_argument &e) {
        return std::string("invalid_argument: ") + e.what();
    } catch (const std::out_of_range &e) {
        return std::string("out_of_range: ") + e.what();
    }
    return "served";
}

TEST(RequestSource, FormatErrorsComeBeforeAddressErrors)
{
    // A trace holding both a bad address and a bad op byte reports the
    // op byte, wherever the two sit (the whole trace used to be parsed
    // before any address was checked), also across a block boundary.
    const size_t words = blockConfig().totalWords();
    for (const auto &[bad_address, bad_op] :
         std::vector<std::pair<size_t, size_t>>{
             {3, 10}, {10, 3}, {5, kB + 2}, {kB + 2, 5}}) {
        std::vector<ServiceRequest> requests =
            fallingTicks(kB + 9, words);
        requests[bad_address].address = words + 5;
        std::string bytes = traceBytes(requests);
        bytes[16 + 25 * bad_op + 8] = 2;
        EXPECT_EQ(serveError(bytes),
                  "invalid_argument: trace: record " +
                      std::to_string(bad_op) + ": malformed op byte \"2\"");
    }

    // With the op bytes intact, the first bad address is reported,
    // its index and address quoted.
    std::vector<ServiceRequest> requests = fallingTicks(kB + 9, words);
    requests[kB + 1].address = words + 5;
    requests[kB + 4].address = words;
    EXPECT_EQ(serveError(traceBytes(requests)),
              "out_of_range: request \"" + std::to_string(kB + 1) +
                  "\" address \"" + std::to_string(words + 5) + "\" >= " +
                  std::to_string(words) + " words of the service");
}

TEST(RequestSource, TraceWriterCommitsOnlyACompleteTrace)
{
    const std::string path = testing::TempDir() + "tdc_writer_commit.bin";
    std::remove(path.c_str());
    const std::vector<ServiceRequest> requests = fallingTicks(10, 64);
    {
        TraceWriter writer(path, requests.size());
        writer.append(std::span(requests).first(4));
        EXPECT_THROW(writer.commit(), std::runtime_error);
    }
    // Neither the target nor the temporary file is left behind.
    const auto leftovers = [&] {
        size_t files = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(testing::TempDir()))
            files += entry.path().filename().string().rfind(
                         "tdc_writer_commit.bin", 0) == 0;
        return files;
    };
    EXPECT_EQ(leftovers(), 0u);
    {
        TraceWriter writer(path, requests.size());
        writer.append(requests);
    }
    EXPECT_EQ(leftovers(), 0u);

    TraceWriter writer(path, requests.size());
    writer.append(std::span(requests).first(4));
    writer.append(std::span(requests).subspan(4));
    writer.commit();
    EXPECT_EQ(readTrace(path), requests);
    std::remove(path.c_str());
}

} // namespace
} // namespace tdc
