/**
 * @file
 * The tdc_run lifetime surface:
 *  - "--figure lifetime" emits exactly the scrub and spare campaign
 *    tables the builders produce;
 *  - a custom "--lifetime" grid matches customLifetimeCampaign with
 *    the same axes, is bit-identical at TDC_THREADS {1, 8}, and
 *    replays identically warm from the result cache;
 *  - malformed --fit-mix specs and misused flags exit 2 with the
 *    offending token quoted, never a table.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hh"
#include "driver/tdc_run.hh"
#include "reliability/result_cache.hh"
#include "scheme/figure_campaigns.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
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

/** Run expecting a usage failure; returns stderr. */
std::string
runUsageError(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    EXPECT_EQ(code, 2) << out;
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(TdcRunLifetime, FigureMatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "lifetime"});
    EXPECT_NE(out.find(lifetimeScrubCampaign().render()),
              std::string::npos);
    EXPECT_NE(out.find(lifetimeSpareCampaign().render()),
              std::string::npos);
}

TEST(TdcRunLifetime, CustomGridMatchesTheCampaignBuilder)
{
    const std::string out = runOk(
        {"--lifetime", "--scheme", "conv:secded/i4/r64", "--fit-mix",
         "single*50000", "--scrub-interval", "24", "--spares", "2",
         "--mission", "10000", "--trials", "16", "--seed", "31"});
    EXPECT_NE(out.find(customLifetimeCampaign({"conv:secded/i4/r64"},
                                              {"single*50000"}, {24.0},
                                              {2}, 10000.0, 16, 31)
                           .render()),
              std::string::npos);
}

TEST(TdcRunLifetime, GridIsThreadCountInvariant)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--lifetime",        "--scheme", "2d:edc8/i4+vp32/r64",
        "--fit-mix",         "jaguar*10000", "--scrub-interval",
        "168",               "--mission", "20000",
        "--trials",          "12",        "--seed", "77"};
    resultCache().clearMemory();
    setParallelThreads(1);
    const std::string one = runOk(args);
    resultCache().clearMemory();
    setParallelThreads(8);
    const std::string eight = runOk(args);
    EXPECT_EQ(one, eight);
}

TEST(TdcRunLifetime, WarmCacheReplaysExactly)
{
    const std::vector<std::string> args = {
        "--lifetime", "--scheme", "prod:64x64",  "--fit-mix",
        "permanent*20000", "--scrub-interval", "168", "--mission",
        "20000",      "--trials", "10",          "--seed", "9"};
    resultCache().clearMemory();
    const std::string cold = runOk(args);
    const std::string warm = runOk(args);
    EXPECT_EQ(cold, warm);
    resultCache().clearMemory();
}

TEST(TdcRunLifetime, MalformedFitMixExitsTwo)
{
    const std::string err = runUsageError(
        {"--lifetime", "--scheme", "conv:secded/i4/r64", "--fit-mix",
         "bogus"});
    EXPECT_NE(err.find("\"bogus\""), std::string::npos) << err;
    EXPECT_NE(runUsageError({"--lifetime", "--fit-mix", "jaguar*0"})
                  .find("jaguar*0"),
              std::string::npos);
    // Each trial materializes its event timeline: an infinite rate
    // (exponential gaps of 0) or ~4e9 expected events per 5-year
    // mission is rejected before any trial runs. The cap is per
    // mission, so the same rate over one hour runs.
    EXPECT_NE(runUsageError({"--lifetime", "--fit-mix", "single*1e308"})
                  .find("\"single*1e308\""),
              std::string::npos);
    EXPECT_NE(runUsageError({"--lifetime", "--fit-mix", "single*1e12"})
                  .find("\"single*1e12\""),
              std::string::npos);
    runOk({"--lifetime", "--scheme", "conv:secded/i4/r16", "--fit-mix",
           "single*1e9", "--mission", "1", "--trials", "2"});
}

TEST(TdcRunLifetime, MisusedFlagsExitTwo)
{
    // --fault is an injection-grid axis; lifetime rows come from
    // --fit-mix.
    EXPECT_NE(runUsageError({"--lifetime", "--fault", "32x32"})
                  .find("--fit-mix"),
              std::string::npos);
    // --fit-mix / --spares only mean something under --lifetime.
    EXPECT_NE(runUsageError({"--scheme", "conv:secded/i4", "--fit-mix",
                             "jaguar"})
                  .find("--lifetime"),
              std::string::npos);
    EXPECT_NE(runUsageError({"--scheme", "conv:secded/i4", "--spares",
                             "2"})
                  .find("--lifetime"),
              std::string::npos);
    // Serve keeps its tick semantics and rejects a second interval.
    EXPECT_NE(runUsageError({"--serve", "uniform/n100/w30",
                             "--scrub-interval", "64",
                             "--scrub-interval", "128"})
                  .find("at most one"),
              std::string::npos);
    // Malformed hours.
    EXPECT_NE(runUsageError({"--lifetime", "--scrub-interval", "-5"})
                  .find("-5"),
              std::string::npos);
    // A NaN mission would never end a timeline.
    EXPECT_NE(runUsageError({"--lifetime", "--mission", "nan"})
                  .find("\"nan\""),
              std::string::npos);
    // A negative spare budget is malformed, not a wrapped huge one.
    const std::string spares =
        runUsageError({"--lifetime", "--spares", "-3"});
    EXPECT_NE(spares.find("\"-3\""), std::string::npos) << spares;
    EXPECT_EQ(spares.find("at most"), std::string::npos) << spares;
}

} // namespace
} // namespace tdc
