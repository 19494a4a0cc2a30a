#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "scoped_env.hh"

namespace tdc
{
namespace
{

/** Restores the default thread count when a test exits. */
struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadGuard guard;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        setParallelThreads(threads);
        constexpr size_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(kN, [&](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << threads << " threads";
    }
}

TEST(ParallelFor, ZeroAndSingleIteration)
{
    ThreadGuard guard;
    setParallelThreads(4);
    int calls = 0;
    parallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

/** The distinct threads that ran the @p n iterations of one call. */
std::set<std::thread::id>
threadsUsed(size_t n)
{
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallelFor(n, [&](size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    });
    return ids;
}

TEST(ParallelFor, SetThreadsIsObservable)
{
    ThreadGuard guard;
    setParallelThreads(1);
    EXPECT_EQ(threadsUsed(1000),
              std::set<std::thread::id>{std::this_thread::get_id()});
    setParallelThreads(3);
    EXPECT_LE(threadsUsed(1000).size(), 3u);
}

TEST(ParallelFor, RequestedThreadsReadsAWholeNumberFromTheEnvironment)
{
    {
        ScopedEnv env("TDC_THREADS", "4");
        EXPECT_EQ(requestedThreads(), std::optional<unsigned>(4));
    }
    {
        ScopedEnv env("TDC_THREADS", "256");
        EXPECT_EQ(requestedThreads(), std::optional<unsigned>(256));
    }
    // A malformed value throws, quoting the variable and the value,
    // instead of running a prefix of it ("4x" as 4).
    expectEnvRejected("TDC_THREADS",
                      {"4x", "abc", "0", "257", "-1", " 4", "1e2", ""},
                      [] { requestedThreads(); });
    ScopedEnv env("TDC_THREADS", "1");
    unsetenv("TDC_THREADS"); // restored by env on exit
    EXPECT_EQ(requestedThreads(), std::nullopt);
}

TEST(ParallelFor, PropagatesFirstException)
{
    ThreadGuard guard;
    setParallelThreads(4);
    EXPECT_THROW(parallelFor(64,
                             [&](size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool must stay usable afterwards.
    std::atomic<size_t> sum{0};
    parallelFor(10, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelFor, NestedCallsRunSerially)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::vector<std::atomic<int>> hits(16 * 8);
    parallelFor(16, [&](size_t outer) {
        parallelFor(8, [&](size_t inner) { ++hits[outer * 8 + inner]; });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ShardSeed, DeterministicAndDecorrelated)
{
    EXPECT_EQ(shardSeed(42, 7), shardSeed(42, 7));
    EXPECT_NE(shardSeed(42, 7), shardSeed(42, 8));
    EXPECT_NE(shardSeed(42, 7), shardSeed(43, 7));
    // Adjacent (base, shard) pairs must not collide the way raw
    // addition would: shardSeed(s, i+1) != shardSeed(s+stride, i).
    EXPECT_NE(shardSeed(1, 2), shardSeed(2, 1));
}

} // namespace
} // namespace tdc
