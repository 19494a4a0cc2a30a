/**
 * @file
 * The --optimize autotuner contract:
 *  - the Pareto property: NO emitted frontier point is dominated by
 *    ANY evaluated point, and every non-frontier point is dominated by
 *    at least one (checked on a >= 100-spec grid from the emitted
 *    evaluated-points table alone);
 *  - frontier and evaluated tables agree with evaluateDesignSpace();
 *  - runs are deterministic and cache-accelerated, and share cache
 *    entries with a one-scheme --scheme x --fault grid;
 *  - malformed patterns / objectives exit 2 quoting the token.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hh"
#include "driver/optimize.hh"
#include "driver/tdc_run.hh"
#include "reliability/result_cache.hh"
#include "scheme/spec_gen.hh"

#include "../cpu/memory_only_cache.hh"

namespace tdc
{
namespace
{

/** The >= 100-point design grid the property test sweeps. */
const std::vector<std::string> kGridPatterns = {
    "2d:edc{8,16,32}/i{1,2,4,8,16}+vp{16,32,64}",
    "conv:{parity,edc8,edc16,edc32,secded,dected,qecped,oecned}"
    "/i{1,2,4,8,16}",
    "wt:edc{8,16,32}/i{1,2,4,8,16}",
    "prod:{64,128,256}x{64,128,256}",
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

/** Split one csv line (the emitted cells never contain commas). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    size_t start = 0;
    while (true) {
        const size_t comma = line.find(',', start);
        cells.push_back(line.substr(
            start,
            comma == std::string::npos ? std::string::npos
                                       : comma - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return cells;
}

struct CsvPoint
{
    std::string spec;
    double coverage;
    double overhead;
    bool frontier;
    size_t dominatedBy;
};

/** Parse the "Evaluated design points" block out of csv output. */
std::vector<CsvPoint>
parseEvaluated(const std::string &csv)
{
    std::vector<CsvPoint> points;
    const size_t block = csv.find("# Evaluated design points");
    EXPECT_NE(block, std::string::npos) << csv;
    size_t pos = csv.find('\n', block);
    pos = csv.find('\n', pos + 1) + 1; // skip the header row
    while (pos < csv.size() && csv[pos] != '\n' && csv[pos] != '#') {
        const size_t eol = csv.find('\n', pos);
        const std::vector<std::string> cells =
            splitCsv(csv.substr(pos, eol - pos));
        if (cells.size() != 5)
            break;
        points.push_back({cells[0], std::stod(cells[1]),
                          std::stod(cells[2]), cells[3] == "yes",
                          size_t(std::stoul(cells[4]))});
        pos = eol + 1;
    }
    return points;
}

std::vector<std::string>
gridArgs(const std::string &format)
{
    std::vector<std::string> args;
    for (const std::string &p : kGridPatterns) {
        args.push_back("--optimize");
        args.push_back(p);
    }
    args.insert(args.end(),
                {"--fault", "single", "--fault", "32x32", "--trials", "5",
                 "--seed", "99", "--format", format});
    return args;
}

TEST(TdcRunOptimize, FrontierPropertyOnLargeGrid)
{
    ASSERT_GE(expandSpecPatterns(kGridPatterns).size(), 100u);

    const std::string csv = runOk(gridArgs("csv"));
    const std::vector<CsvPoint> points = parseEvaluated(csv);
    ASSERT_GE(points.size(), 100u);

    // Recompute dominance from the emitted numbers alone: a frontier
    // point must not be dominated by ANY evaluated point, and every
    // dominated-by count must match.
    for (const CsvPoint &p : points) {
        size_t dominated_by = 0;
        for (const CsvPoint &q : points) {
            const bool dominates =
                q.coverage >= p.coverage && q.overhead <= p.overhead &&
                (q.coverage > p.coverage || q.overhead < p.overhead);
            dominated_by += dominates ? 1 : 0;
            if (p.frontier) {
                EXPECT_FALSE(dominates)
                    << p.spec << " is on the frontier but dominated by "
                    << q.spec;
            }
        }
        EXPECT_EQ(dominated_by, p.dominatedBy) << p.spec;
        EXPECT_EQ(p.frontier, dominated_by == 0) << p.spec;
    }

    // The frontier table lists exactly the non-dominated points (same
    // run, so the expensive grid is evaluated once).
    const size_t block = csv.find("# Pareto frontier");
    ASSERT_NE(block, std::string::npos);
    size_t pos = csv.find('\n', block);
    pos = csv.find('\n', pos + 1) + 1;
    size_t frontier_rows = 0;
    while (pos < csv.size() && csv[pos] != '\n' && csv[pos] != '#') {
        ++frontier_rows;
        pos = csv.find('\n', pos) + 1;
    }
    size_t expected = 0;
    for (const CsvPoint &p : points)
        expected += p.frontier ? 1 : 0;
    EXPECT_EQ(frontier_rows, expected);
    EXPECT_GT(expected, 0u);
    EXPECT_LT(expected, points.size());
}

TEST(TdcRunOptimize, MatchesEvaluateDesignSpace)
{
    OptimizeRequest req;
    req.patterns = {"2d:edc{8,16}/i{2,4}+vp32"};
    req.faults = {"single", "32x32"};
    req.trials = 5;
    req.seed = 99;
    const std::vector<DesignPoint> direct = evaluateDesignSpace(req);
    ASSERT_EQ(direct.size(), 4u);

    const std::string csv = runOk(
        {"--optimize", "2d:edc{8,16}/i{2,4}+vp32", "--fault", "single",
         "--fault", "32x32", "--trials", "5", "--seed", "99", "--format",
         "csv"});
    const std::vector<CsvPoint> emitted = parseEvaluated(csv);
    ASSERT_EQ(emitted.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(emitted[i].spec, direct[i].spec);
        EXPECT_NEAR(emitted[i].coverage, direct[i].coverage, 1e-6);
        EXPECT_NEAR(emitted[i].overhead, direct[i].overhead, 1e-6);
        EXPECT_EQ(emitted[i].dominatedBy, direct[i].dominatedBy);
    }
}

TEST(TdcRunOptimize, DeterministicAcrossRepeatsAndThreads)
{
    struct ThreadGuard
    {
        ~ThreadGuard() { setParallelThreads(0); }
    } guard;

    const std::vector<std::string> base = {
        "--optimize", "2d:edc8/i{2,4}+vp{16,32}", "--trials", "10",
        "--seed", "7"};
    std::vector<std::string> t1 = base;
    t1.insert(t1.end(), {"--threads", "1"});
    std::vector<std::string> t8 = base;
    t8.insert(t8.end(), {"--threads", "8"});
    const std::string a = runOk(t1);
    const std::string b = runOk(t8);
    const std::string c = runOk(t1); // warm: served from the cache
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(TdcRunOptimize, ObjectiveAxisChangesOverheadColumn)
{
    const std::vector<std::string> base = {
        "--optimize", "2d:edc8/i{2,4}+vp32", "--trials", "5", "--format",
        "csv"};
    std::vector<std::string> area = base;
    area.insert(area.end(), {"--objective", "area"});
    const std::string storage_csv = runOk(base);
    const std::string area_csv = runOk(area);
    EXPECT_NE(storage_csv.find("Overhead (storage)"), std::string::npos);
    EXPECT_NE(area_csv.find("Overhead (area)"), std::string::npos);
    EXPECT_NE(storage_csv, area_csv);
}

/** Result-cache counters of one in-process tdc_run. */
CacheStats
cacheStatsOf(const std::vector<std::string> &args)
{
    resultCache().resetStats();
    runOk(args);
    return resultCache().stats();
}

TEST(TdcRunOptimize, SharesCacheEntriesOnlyWithOneSchemeGrids)
{
    // --optimize seeds its cell f with shardSeed(seed, f); a custom
    // grid seeds cell (row, col) with shardSeed(seed, row * nc + col).
    // They coincide for every fault only when the grid has one scheme.
    MemoryOnlyCache guard;
    const std::vector<std::string> faults = {"--fault", "single", "--fault",
                                             "32x32", "--seed", "5"};
    const auto with = [&](std::vector<std::string> args) {
        args.insert(args.end(), faults.begin(), faults.end());
        return args;
    };
    const std::vector<std::string> optimize =
        with({"--optimize", "2d:edc8/i4+vp32", "--trials", "20"});

    resultCache().clearMemory();
    runOk(with({"--scheme", "2d:edc8/i4+vp32", "--events", "20"}));
    const CacheStats one = cacheStatsOf(optimize);
    EXPECT_EQ(one.hits(), 2u);
    EXPECT_EQ(one.misses, 0u);

    resultCache().clearMemory();
    runOk(with({"--scheme", "2d:edc8/i4+vp32", "--scheme",
                "conv:secded/i4", "--events", "20"}));
    const CacheStats two = cacheStatsOf(optimize);
    EXPECT_EQ(two.hits(), 1u);
    EXPECT_EQ(two.misses, 1u);
    resultCache().clearMemory();
}

/** EXPECT exit 2 with @p token quoted on stderr and no stdout. */
void
expectUsageError(const std::vector<std::string> &args,
                 const std::string &token)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    EXPECT_EQ(code, 2) << "args should have failed";
    EXPECT_TRUE(out.empty());
    EXPECT_NE(err.find(token), std::string::npos)
        << "stderr \"" << err << "\" does not quote \"" << token << "\"";
}

TEST(TdcRunOptimize, UsageErrorsExitTwoQuotingTheToken)
{
    expectUsageError({"--optimize", "2d:edc{8,16"}, "{");
    expectUsageError({"--optimize", "i{4..2}"}, "{4..2}");
    expectUsageError({"--optimize", "2d:edc{8,16}/i2+vp32", "--objective",
                      "speed"},
                     "speed");
    expectUsageError({"--optimize", "conv:nosuchcode/i2"}, "nosuchcode");
    expectUsageError({"--optimize", "prod:64x64", "--objective", "area"},
                     "prod:64x64");
    expectUsageError({"--fault", "single"}, "--fault");
}

} // namespace
} // namespace tdc
