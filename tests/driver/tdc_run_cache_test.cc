/**
 * @file
 * End-to-end determinism of the campaign result cache through the
 * tdc_run CLI: figure output is byte-identical across {cold, warm,
 * corrupt-entry recompute} x TDC_THREADS {1, 8}, the second run
 * reports hits, truncating entries degrades gracefully, and
 * --cache-stats renders in every output format.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "driver/tdc_run.hh"
#include "reliability/result_cache.hh"

namespace tdc
{
namespace
{

namespace fs = std::filesystem;

/**
 * Every test drives the process-global resultCache() through the CLI,
 * so isolate: fresh scratch dir, no configured directory, empty
 * memory tier, default thread pool on both entry and exit.
 */
class TdcRunCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tdc_run_cache_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        resultCache().setDirectory("");
        resultCache().clearMemory();
        resultCache().resetStats();
    }

    void TearDown() override
    {
        resultCache().setDirectory("");
        resultCache().clearMemory();
        setParallelThreads(0);
        fs::remove_all(dir_);
    }

    std::string dir() const { return dir_.string(); }

    /** A fresh process against the shared --cache-dir is modeled by
     *  dropping the in-memory tier. */
    void modelFreshProcess() { resultCache().clearMemory(); }

    /** Truncate every on-disk entry to half its size. */
    void corruptAllEntries()
    {
        size_t corrupted = 0;
        for (const auto &e : fs::directory_iterator(dir_)) {
            fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
            ++corrupted;
        }
        ASSERT_GT(corrupted, 0u);
    }

    fs::path dir_;
};

std::string
runOk(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_TRUE(err.empty()) << err;
    return out;
}

TEST_F(TdcRunCacheTest, FigureByteIdenticalColdWarmCorruptAcrossThreads)
{
    // The acceptance matrix: {cold, warm, corrupt-entry recompute} x
    // TDC_THREADS {1, 8} must all produce the same bytes.
    const auto figure = [&](const char *threads) {
        return runOk({"--figure", "fig3", "--cache-dir", dir(),
                      "--threads", threads});
    };

    const std::string cold = figure("1");

    modelFreshProcess();
    const std::string warm_t1 = figure("1");
    modelFreshProcess();
    const std::string warm_t8 = figure("8");

    corruptAllEntries();
    modelFreshProcess();
    const std::string corrupt_t1 = figure("1");
    modelFreshProcess();
    const std::string corrupt_t8 = figure("8");

    EXPECT_EQ(cold, warm_t1);
    EXPECT_EQ(cold, warm_t8);
    EXPECT_EQ(cold, corrupt_t1) << "corrupt entries must recompute to "
                                   "the identical result";
    EXPECT_EQ(cold, corrupt_t8);

    // And a cacheless run is the same bytes too.
    resultCache().setDirectory("");
    modelFreshProcess();
    EXPECT_EQ(cold, runOk({"--figure", "fig3", "--threads", "1"}));
}

TEST_F(TdcRunCacheTest, SecondRunReportsHitsFirstReportsMisses)
{
    const std::string cold =
        runOk({"--figure", "fig8", "--cache-dir", dir(), "--cache-stats"});
    EXPECT_NE(cold.find("cache: 0 hits"), std::string::npos) << cold;
    EXPECT_NE(cold.find("stored"), std::string::npos);

    modelFreshProcess();
    const std::string warm =
        runOk({"--figure", "fig8", "--cache-dir", dir(), "--cache-stats"});
    EXPECT_EQ(warm.find("cache: 0 hits"), std::string::npos) << warm;
    EXPECT_NE(warm.find("disk"), std::string::npos);

    // Everything before the stats line is byte-identical.
    const auto body = [](const std::string &s) {
        return s.substr(0, s.rfind("cache: "));
    };
    EXPECT_EQ(body(cold), body(warm));
}

TEST_F(TdcRunCacheTest, TruncatedStoreRecomputesAndHeals)
{
    runOk({"--figure", "fig8", "--cache-dir", dir()});
    corruptAllEntries();

    // The corrupt run recomputes (no disk hits) and rewrites entries.
    modelFreshProcess();
    resultCache().resetStats();
    runOk({"--figure", "fig8", "--cache-dir", dir()});
    const CacheStats after_corrupt = resultCache().stats();
    EXPECT_EQ(after_corrupt.diskHits, 0u);
    EXPECT_GT(after_corrupt.corrupt, 0u);
    EXPECT_GT(after_corrupt.stored, 0u);

    // The healed store serves the next fresh process from disk.
    modelFreshProcess();
    resultCache().resetStats();
    runOk({"--figure", "fig8", "--cache-dir", dir()});
    EXPECT_GT(resultCache().stats().diskHits, 0u);
    EXPECT_EQ(resultCache().stats().misses, 0u);
}

TEST_F(TdcRunCacheTest, CacheStatsRendersInEveryFormat)
{
    const std::string table =
        runOk({"--figure", "fig8", "--cache-dir", dir(), "--cache-stats"});
    EXPECT_NE(table.find("\ncache: "), std::string::npos);

    const std::string csv =
        runOk({"--figure", "fig8", "--cache-dir", dir(), "--cache-stats",
               "--format", "csv"});
    EXPECT_NE(csv.find("# cache: "), std::string::npos);

    const std::string json =
        runOk({"--figure", "fig8", "--cache-dir", dir(), "--cache-stats",
               "--format", "json"});
    EXPECT_NE(json.find("\"cache\": {\"memory_hits\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"tables\""), std::string::npos);

    // Without the flag, no stats line leaks into the output.
    const std::string plain =
        runOk({"--figure", "fig8", "--cache-dir", dir()});
    EXPECT_EQ(plain.find("cache: "), std::string::npos);
}

TEST_F(TdcRunCacheTest, CustomGridSharesEntriesWithRepeatRuns)
{
    const std::vector<std::string> args = {
        "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:secded/i2",
        "--fault",  "single",          "--fault",  "16x16",
        "--events", "20",              "--cache-dir", dir()};
    const std::string cold = runOk(args);
    ASSERT_FALSE(fs::is_empty(dir_));

    modelFreshProcess();
    resultCache().resetStats();
    const std::string warm = runOk(args);
    EXPECT_EQ(cold, warm);
    EXPECT_GT(resultCache().stats().diskHits, 0u);
    EXPECT_EQ(resultCache().stats().misses, 0u);
}

TEST_F(TdcRunCacheTest, NanDensityNeverReachesTheCache)
{
    // A NaN density once ran as a fault that flips nothing and stored
    // its "corrected" verdict under the solid 16x16 key, which a later
    // genuine run then replayed.
    std::string out, err;
    EXPECT_EQ(tdcRun({"--scheme", "conv:secded/i4", "--fault", "16x16@nan",
                      "--events", "3", "--cache-dir", dir()},
                     out, err),
              2);
    EXPECT_NE(err.find("\"16x16@nan\""), std::string::npos) << err;
    EXPECT_TRUE(!fs::exists(dir_) || fs::is_empty(dir_));

    modelFreshProcess();
    EXPECT_NE(runOk({"--scheme", "conv:secded/i4", "--fault", "16x16",
                     "--events", "3", "--cache-dir", dir()})
                  .find("detected only 0/3"),
              std::string::npos);
}

TEST_F(TdcRunCacheTest, CacheDirFlagRequiresValue)
{
    std::string out, err;
    EXPECT_EQ(tdcRun({"--figure", "fig8", "--cache-dir"}, out, err), 2);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);
}

} // namespace
} // namespace tdc
