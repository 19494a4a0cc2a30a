/**
 * @file
 * ResultCache contract: two-tier memoization, a versioned
 * self-verifying disk format, and graceful recovery from every
 * corruption mode the store can meet in the wild — truncation, stale
 * format salt, bit flips, digest-colliding foreign entries, width
 * mismatches — all of which must silently recompute, never crash or
 * return wrong data. Concurrent writers sharing one directory (the
 * multi-process campaign case) must never observe torn entries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "reliability/result_cache.hh"

namespace tdc
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory per test. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tdc_cache_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir() const { return dir_.string(); }

    fs::path entryPath(const std::string &key) const
    {
        return dir_ / ResultCache::entryFileName(key);
    }

    fs::path dir_;
};

ResultCache::Record
record(std::vector<int64_t> ints, std::vector<double> reals)
{
    ResultCache::Record r;
    r.ints = std::move(ints);
    r.reals = std::move(reals);
    return r;
}

TEST_F(ResultCacheTest, MemoryTierMemoizes)
{
    ResultCache cache; // no disk tier
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        return record({1, 2, 3}, {0.5});
    };
    EXPECT_EQ(cache.memoize("k", compute, 3, 1), record({1, 2, 3}, {0.5}));
    EXPECT_EQ(cache.memoize("k", compute, 3, 1), record({1, 2, 3}, {0.5}));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().memoryHits, 1u);
    EXPECT_EQ(cache.stats().stored, 0u); // no disk tier configured
}

TEST_F(ResultCacheTest, DiskTierSurvivesProcessRestart)
{
    ResultCache cache(dir());
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        return record({42}, {3.14159, -0.0});
    };
    const ResultCache::Record first = cache.memoize("key", compute, 1, 2);
    EXPECT_TRUE(fs::exists(entryPath("key")));

    // A fresh process is modeled by dropping the memory tier.
    cache.clearMemory();
    const ResultCache::Record second = cache.memoize("key", compute, 1, 2);
    EXPECT_EQ(first, second);
    EXPECT_EQ(calls, 1) << "disk tier should have served the reload";
    EXPECT_EQ(cache.stats().diskHits, 1u);

    // Bit-exact doubles: -0.0 must come back as -0.0.
    EXPECT_TRUE(std::signbit(second.reals[1]));
}

TEST_F(ResultCacheTest, TruncatedEntryRecomputes)
{
    ResultCache cache(dir());
    cache.memoize("key", [] { return record({7}, {1.25}); }, 1, 1);

    // Truncate the entry to half its size.
    const fs::path path = entryPath("key");
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);

    cache.clearMemory();
    const ResultCache::Record r =
        cache.memoize("key", [] { return record({7}, {1.25}); }, 1, 1);
    EXPECT_EQ(r, record({7}, {1.25}));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The rewritten entry is whole again.
    cache.clearMemory();
    cache.memoize("key", [] { return record({7}, {1.25}); }, 1, 1);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST_F(ResultCacheTest, FlippedByteRecomputes)
{
    ResultCache cache(dir());
    cache.memoize("key", [] { return record({1, 2}, {}); }, 2, 0);

    const fs::path path = entryPath("key");
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(-3, std::ios::end); // inside the checksum-protected tail
    char byte = 0;
    f.seekg(-3, std::ios::end);
    f.read(&byte, 1);
    byte = char(byte ^ 0x40);
    f.seekp(-3, std::ios::end);
    f.write(&byte, 1);
    f.close();

    cache.clearMemory();
    EXPECT_EQ(cache.memoize("key", [] { return record({1, 2}, {}); }, 2, 0),
              record({1, 2}, {}));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(ResultCacheTest, StaleVersionSaltRecomputes)
{
    ResultCache cache(dir());
    cache.memoize("key", [] { return record({9}, {}); }, 1, 0);

    // Rewrite the entry's version word (bytes 8..11, after the 8-byte
    // magic) to a stale value. The file is otherwise intact, so only
    // the salt check can reject it.
    const fs::path path = entryPath("key");
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    const uint32_t stale = ResultCache::kFormatVersion + 1000;
    f.seekp(8);
    f.write(reinterpret_cast<const char *>(&stale), sizeof(stale));
    f.close();

    cache.clearMemory();
    EXPECT_EQ(cache.memoize("key", [] { return record({9}, {}); }, 1, 0),
              record({9}, {}));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(ResultCacheTest, ForeignKeyInCollidingFileRecomputes)
{
    // An entry file whose *content* echoes a different key (as after a
    // digest collision or a file renamed by hand) must not be served.
    ResultCache cache(dir());
    cache.memoize("other-key", [] { return record({13}, {}); }, 1, 0);
    fs::rename(entryPath("other-key"), entryPath("key"));

    cache.clearMemory();
    int calls = 0;
    EXPECT_EQ(cache.memoize("key",
                            [&] {
                                ++calls;
                                return record({77}, {});
                            },
                            1, 0),
              record({77}, {}));
    EXPECT_EQ(calls, 1);
    EXPECT_GE(cache.stats().corrupt, 1u);
}

TEST_F(ResultCacheTest, RealsWidthMismatchRecomputes)
{
    ResultCache cache(dir());
    cache.reals("key", 2, [] { return std::vector<double>{1.0, 2.0}; });
    cache.clearMemory();
    // Same key, different expected width: treat as corrupt, recompute.
    const std::vector<double> v =
        cache.reals("key", 3,
                    [] { return std::vector<double>{5.0, 6.0, 7.0}; });
    EXPECT_EQ(v, (std::vector<double>{5.0, 6.0, 7.0}));
}

TEST_F(ResultCacheTest, OutcomeRoundTrips)
{
    ResultCache cache(dir());
    InjectionOutcome o;
    o.trials = 100;
    o.corrected = 97;
    o.detectedOnly = 2;
    o.silent = 1;
    const InjectionOutcome cached =
        cache.outcome("key", [&] { return o; });
    EXPECT_EQ(cached, o);
    cache.clearMemory();
    const InjectionOutcome reloaded = cache.outcome("key", [&] {
        ADD_FAILURE() << "should have been served from disk";
        return InjectionOutcome{};
    });
    EXPECT_EQ(reloaded, o);
}

TEST_F(ResultCacheTest, SetDirectoryEnablesAndDisablesDiskTier)
{
    ResultCache cache;
    cache.memoize("key", [] { return record({1}, {}); }, 1, 0);
    EXPECT_FALSE(fs::exists(entryPath("key")));

    cache.setDirectory(dir());
    cache.memoize("key2", [] { return record({2}, {}); }, 1, 0);
    EXPECT_TRUE(fs::exists(entryPath("key2")));

    cache.setDirectory("");
    cache.memoize("key3", [] { return record({3}, {}); }, 1, 0);
    EXPECT_FALSE(fs::exists(entryPath("key3")));
}

TEST_F(ResultCacheTest, EntryFileNameIsStableAndSafe)
{
    const std::string name = ResultCache::entryFileName(
        "inject|scheme=2d:edc8/i4+vp32|fault=32x32|trials=100|seed=1");
    EXPECT_EQ(name, ResultCache::entryFileName(
                        "inject|scheme=2d:edc8/i4+vp32|fault=32x32|"
                        "trials=100|seed=1"));
    // Digest hex + extension: no separators that could escape the
    // cache directory.
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_EQ(name.find('\\'), std::string::npos);
    EXPECT_NE(name.find(".tdcr"), std::string::npos);
}

TEST_F(ResultCacheTest, ConcurrentWritersSharingDirectory)
{
    // Model N processes sharing --cache-dir: distinct ResultCache
    // instances (separate memory tiers, separate locks) hammering the
    // same keys. Atomic rename publication means every lookup either
    // misses or returns a whole, correct entry.
    constexpr int kWriters = 8;
    constexpr int kKeys = 16;
    std::deque<ResultCache> caches; // ResultCache is not movable
    for (int i = 0; i < kWriters; ++i)
        caches.emplace_back(dir());

    std::vector<std::thread> threads;
    std::vector<int> failures(kWriters, 0);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int round = 0; round < 3; ++round) {
                caches[size_t(w)].clearMemory();
                for (int k = 0; k < kKeys; ++k) {
                    const std::string key = "key" + std::to_string(k);
                    const ResultCache::Record r =
                        caches[size_t(w)].memoize(
                            key,
                            [&] {
                                return record({k, k * k},
                                              {double(k) / 3.0});
                            },
                            2, 1);
                    if (r != record({k, k * k}, {double(k) / 3.0}))
                        ++failures[size_t(w)];
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int w = 0; w < kWriters; ++w)
        EXPECT_EQ(failures[size_t(w)], 0) << "writer " << w;
    // No stray tmp files left behind.
    size_t tmp_files = 0;
    for (const auto &e : fs::directory_iterator(dir()))
        if (e.path().extension() != ".tdcr")
            ++tmp_files;
    EXPECT_EQ(tmp_files, 0u);
}

TEST_F(ResultCacheTest, ShapedMemoizeRecomputesAForeignWidth)
{
    ResultCache cache(dir());
    cache.store("key", record({1, 2, 3}, {}));
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        return record({4, 5}, {0.5});
    };
    // Wrong width: counted corrupt, recomputed, and overwritten.
    EXPECT_EQ(cache.memoize("key", compute, 2, 1), record({4, 5}, {0.5}));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The disk copy was overwritten too: a fresh process hits it.
    cache.clearMemory();
    EXPECT_EQ(cache.memoize("key", compute, 2, 1), record({4, 5}, {0.5}));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST_F(ResultCacheTest, StatsDescribeMentionsEveryCounter)
{
    ResultCache cache(dir());
    cache.memoize("a", [] { return record({1}, {}); }, 1, 0);
    cache.memoize("a", [] { return record({1}, {}); }, 1, 0);
    const std::string line = cache.stats().describe();
    EXPECT_NE(line.find("hit"), std::string::npos) << line;
    EXPECT_NE(line.find("miss"), std::string::npos) << line;
    EXPECT_NE(line.find("stored"), std::string::npos) << line;
    EXPECT_NE(line.find("corrupt"), std::string::npos) << line;
    cache.resetStats();
    EXPECT_EQ(cache.stats(), CacheStats{});
}

} // namespace
} // namespace tdc
