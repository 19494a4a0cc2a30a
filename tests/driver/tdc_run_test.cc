/**
 * @file
 * The tdc_run driver contract:
 *  - "--figure fig1/fig2/fig7" emits the very tables the
 *    CampaignGoldenPins suite pins (driver output == campaign-builder
 *    output, so the CLI can never drift from the pinned figures);
 *  - a CLI-launched custom scheme x fault grid is bit-identical at
 *    TDC_THREADS=1 and 8;
 *  - csv/json formats carry the same cells as the table format;
 *  - usage errors (unknown flags/figures, malformed specs) fail with
 *    exit code 2 and a quoted offending token, never a table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/cpu_features.hh"
#include "common/parallel.hh"
#include "driver/tdc_run.hh"
#include "scheme/figure_campaigns.hh"
#include "service/request_gen.hh"

#include "../common/scoped_env.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

/** Run the driver, asserting success, and return its stdout. */
std::string
runOk(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_TRUE(err.empty()) << err;
    return out;
}

TEST(TdcRun, Figure1MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig1"});
    EXPECT_NE(out.find(figure1StorageCampaign().render()),
              std::string::npos);
    EXPECT_NE(out.find(figure1EnergyCampaign().render()),
              std::string::npos);
}

TEST(TdcRun, Figure2MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig2"});
    EXPECT_NE(
        out.find(figure2EnergyCampaign(
                     "--- Figure 2(b): 64kB cache, (72,64) SECDED words "
                     "---",
                     64 * 1024, 64, 1)
                     .render()),
        std::string::npos);
    EXPECT_NE(
        out.find(figure2EnergyCampaign(
                     "--- Figure 2(c): 4MB cache, (266,256) SECDED words, "
                     "8 banks ---",
                     4 * 1024 * 1024, 256, 8)
                     .render()),
        std::string::npos);
}

TEST(TdcRun, Figure7MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig7"});
    EXPECT_NE(
        out.find(figure7Campaign(
                     "--- Figure 7(a): 64kB L1 data cache (normalized to "
                     "SECDED+Intv2 = 100%) ---",
                     CacheGeometry::l1(),
                     {"2d:edc8/i4+vp32", "conv:dected/i16",
                      "conv:qecped/i8", "conv:oecned/i4", "wt:edc8/i4"})
                     .render()),
        std::string::npos);
    EXPECT_NE(
        out.find(figure7Campaign(
                     "--- Figure 7(b): 4MB L2 cache (normalized to "
                     "SECDED+Intv2 = 100%) ---",
                     CacheGeometry::l2(),
                     {"2d:edc16/i2+vp32/w256", "conv:dected/i16",
                      "conv:qecped/i8", "conv:oecned/i4"})
                     .render()),
        std::string::npos);
}

TEST(TdcRun, SeedKeepsFullUint64Precision)
{
    ThreadGuard guard;
    setParallelThreads(1);
    // 2^53+1 is not representable as a double: a seed routed through
    // strtod would collapse onto 2^53. The campaign title embeds the
    // parsed seed verbatim, so it pins the full-precision path.
    std::string out53p1, err;
    ASSERT_EQ(tdcRun({"--scheme", "conv:secded/i4/r16", "--fault", "4x4",
                      "--events", "3", "--seed", "9007199254740993"},
                     out53p1, err),
              0);
    EXPECT_NE(out53p1.find("seed 9007199254740993"), std::string::npos);
    // Seed 0 is legitimate.
    std::string out0;
    EXPECT_EQ(tdcRun({"--scheme", "conv:secded/i4/r16", "--fault", "4x4",
                      "--events", "1", "--seed", "0"},
                     out0, err),
              0);
}

TEST(TdcRun, CustomGridIdenticalAtOneAndEightThreads)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:secded/i4/r64",
        "--fault",  "8x8",             "--fault",  "row:16",
        "--events", "4",               "--seed",   "99",
    };
    setParallelThreads(1);
    const std::string serial = runOk(args);
    setParallelThreads(8);
    EXPECT_EQ(runOk(args), serial);
    EXPECT_NE(serial.find("2D(EDC8+Intv4,EDC32)"), std::string::npos);
    // --threads is an alternative spelling of the same pool override.
    setParallelThreads(1);
    std::vector<std::string> threaded = args;
    threaded.push_back("--threads");
    threaded.push_back("8");
    EXPECT_EQ(runOk(threaded), serial);
}

TEST(TdcRun, CustomIpcGridRunsWorkloadSubset)
{
    ThreadGuard guard;
    setParallelThreads(2);
    const std::string out =
        runOk({"--machine", "lean", "--protection", "l1+steal",
               "--protection", "wt", "--workload", "OLTP", "--cycles",
               "20000"});
    EXPECT_NE(out.find("IPC loss: lean CMP"), std::string::npos);
    EXPECT_NE(out.find("OLTP"), std::string::npos);
    EXPECT_NE(out.find("L1+steal"), std::string::npos);
    EXPECT_NE(out.find("WT-L1 + 2D-L2"), std::string::npos);
    // Only the requested workload appears.
    EXPECT_EQ(out.find("Ocean"), std::string::npos);
}

TEST(TdcRun, CsvAndJsonCarryTheTableCells)
{
    const std::string csv =
        runOk({"--figure", "fig1", "--format", "csv"});
    EXPECT_NE(csv.find("Code,HD,64b word,256b word"), std::string::npos);
    EXPECT_NE(csv.find("OECNED,18,89.1%,28.5%"), std::string::npos);

    const std::string json =
        runOk({"--figure", "fig1", "--format", "json"});
    EXPECT_NE(json.find("\"tables\""), std::string::npos);
    EXPECT_NE(json.find("\"headers\": [\"Code\", \"HD\", \"64b word\", "
                        "\"256b word\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"OECNED\", \"18\", \"89.1%\", \"28.5%\""),
              std::string::npos);
}

TEST(TdcRun, ListFlagsEnumerateRegistries)
{
    const std::string figures = runOk({"--list-figures"});
    for (const FigureDef &figure : figureList())
        EXPECT_NE(figures.find(figure.key), std::string::npos);

    const std::string schemes = runOk({"--list-schemes"});
    EXPECT_NE(schemes.find("conv:"), std::string::npos);
    EXPECT_NE(schemes.find("2d:"), std::string::npos);
    EXPECT_NE(schemes.find("prod:"), std::string::npos);
    EXPECT_NE(schemes.find("SECDED"), std::string::npos);

    const std::string faults = runOk({"--list-faults"});
    EXPECT_NE(faults.find("fullrow"), std::string::npos);
}

TEST(TdcRun, UsageErrorsExitTwoWithQuotedToken)
{
    const auto expectUsageError = [](const std::vector<std::string> &args,
                                     const std::string &needle) {
        std::string out, err;
        EXPECT_EQ(tdcRun(args, out, err), 2);
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        EXPECT_EQ(out.find("---"), std::string::npos);
    };
    expectUsageError({"--bogus"}, "\"--bogus\"");
    expectUsageError({"--figure", "fig99"}, "\"fig99\"");
    expectUsageError({"--scheme", "conv:edc9/i4"}, "\"edc9\"");
    expectUsageError({"--scheme", "conv:secded/i4", "--fault", "blob"},
                     "\"blob\"");
    expectUsageError({"--fault", "8x8"}, "--scheme");
    expectUsageError({"--workload", "OLTP"}, "--protection");
    expectUsageError({"--machine", "huge"}, "\"huge\"");
    expectUsageError({"--format", "xml"}, "\"xml\"");
    expectUsageError({"--events", "0", "--figure", "fig1"}, "--events");
    expectUsageError({"--seed", "12x", "--figure", "fig1"}, "\"12x\"");
    // NaN fails every range test written as v < lo || v > hi, and
    // strtoull wraps a leading '-' to a huge value.
    expectUsageError({"--events", "nan", "--figure", "fig1"}, "\"nan\"");
    expectUsageError({"--trials", "nan", "--scheme", "conv:secded/i4"},
                     "\"nan\"");
    expectUsageError({"--cycles", "nan", "--protection", "l1"}, "\"nan\"");
    expectUsageError({"--seed", "-1", "--figure", "fig1"}, "\"-1\"");
    expectUsageError({"--seed", " 7", "--figure", "fig1"}, "\" 7\"");
    expectUsageError({"--seed", "18446744073709551616", "--figure", "fig1"},
                     "\"18446744073709551616\"");
    // Counts are whole numbers, as in the request grammar ("/n2.5" is
    // refused too); scientific notation stays ("1e2"), and --mission
    // stays a real number of hours.
    expectUsageError({"--events", "2.5", "--scheme", "conv:secded/i4"},
                     "\"2.5\"");
    expectUsageError({"--trials", "1.5", "--scheme", "conv:secded/i4"},
                     "\"1.5\"");
    expectUsageError({"--threads", "2.7", "--figure", "table1"}, "\"2.7\"");
    expectUsageError({"--cycles", "1e3.5", "--protection", "l1"},
                     "\"1e3.5\"");
    expectUsageError({"--cycles", "1000.5", "--protection", "l1"},
                     "\"1000.5\"");
    expectUsageError({"--serve", "uniform/n100", "--shards", "1.5"},
                     "\"1.5\"");
    expectUsageError({"--serve", "uniform/n100", "--banks", "2.25"},
                     "\"2.25\"");
    expectUsageError({"--serve", "uniform/n100", "--ports", "1.1"},
                     "\"1.1\"");
    // One decimal rule for every number (common/spec_reader): no hex,
    // no padding, no NaN density.
    expectUsageError({"--events", "0x10", "--scheme", "conv:secded/i4"},
                     "\"0x10\"");
    expectUsageError({"--events", " 5", "--scheme", "conv:secded/i4"},
                     "\" 5\"");
    expectUsageError({"--scheme", "conv:secded/i4", "--fault", "16x16@nan"},
                     "\"16x16@nan\"");
    expectUsageError({"--scheme", "conv:secded/i4", "--fault", "16x16@ 0.5"},
                     "\"16x16@ 0.5\"");
    expectUsageError({"--lifetime", "--fit-mix", "single*0x10"},
                     "\"single*0x10\"");
    expectUsageError({"--optimize", "conv:secded/i{+2..2}"}, "{+2..2}");
    expectUsageError({"--optimize", "conv:secded/i{ 2.. 2}"}, "{ 2.. 2}");
    // The seed reads all 64 bits; 2^64 is refused above.
    EXPECT_NE(runOk({"--scheme", "conv:secded/i4", "--fault", "single",
                     "--events", "2", "--seed", "18446744073709551615"})
                  .find("seed 18446744073709551615\n"),
              std::string::npos);
    EXPECT_NE(runOk({"--scheme", "conv:secded/i4", "--fault", "single",
                     "--events", "1e1"})
                  .find("/10"),
              std::string::npos);
    EXPECT_NE(runOk({"--lifetime", "--scheme", "conv:secded/i4",
                     "--trials", "2", "--mission", "100.5"})
                  .find("100.5h missions"),
              std::string::npos);
    expectUsageError({"--protection", "l3"}, "\"l3\"");
    expectUsageError({"--protection", "l1", "--workload", "NoSuch"},
                     "\"NoSuch\"");
    expectUsageError({}, "usage");
}

TEST(TdcRun, OversizedFootprintsAreClippedToTheArray)
{
    // A footprint taller or wider than the array covers all of it on
    // that axis, for every scheme family and for served fault events.
    const struct
    {
        const char *scheme, *fault, *row;
    } grids[] = {
        // A 64-row rank: every row of one chip's column, corrected.
        {"dram:chipkill/x4", "1x256", "1x256  corrected 100/100"},
        // A 60-column rank: a whole row across every chip.
        {"dram:chipkill/x4", "row:64", "64x1 burst  detected only 0/100"},
        // One bit per row of each word: SECDED corrects every row.
        {"conv:secded/i4/r64", "col:100", "1x100 burst  corrected 100/100"},
        // The whole 64-row bank, 33 columns wide: beyond 2D coverage.
        {"2d:edc8/i4+vp32/r64", "33x100", "33x100  detected only 0/100"},
    };
    for (const auto &g : grids) {
        const std::string out =
            runOk({"--scheme", g.scheme, "--fault", g.fault});
        EXPECT_NE(out.find(g.row), std::string::npos)
            << g.scheme << " " << g.fault << ":\n"
            << out;
    }
    const std::string served =
        runOk({"--serve", "uniform/n1e4/w30", "--fault", "1x300",
               "--fault-interval", "512"});
    EXPECT_NE(served.find("serve uniform/n10000/w30"), std::string::npos);
    EXPECT_NE(served.find("Faults"), std::string::npos);
}

TEST(TdcRun, ServeEmitsLatencyAndReliabilityTables)
{
    const std::string out = runOk({"--serve", "uniform/n4000/w30",
                                   "--scrub-interval", "17",
                                   "--fault-interval", "501"});
    EXPECT_NE(out.find("serve uniform/n4000/w30"), std::string::npos);
    EXPECT_NE(out.find("RBW stolen"), std::string::npos);
    EXPECT_NE(out.find("p999"), std::string::npos);
    EXPECT_NE(out.find("ScrubSteps"), std::string::npos);
    EXPECT_NE(out.find("all"), std::string::npos);
}

TEST(TdcRun, ServeIsThreadCountInvariant)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--serve", "zipf90/n6000/w40", "--scrub-interval", "13",
        "--fault-interval", "301", "--format", "json"};
    std::vector<std::string> one = args, eight = args;
    one.insert(one.end(), {"--threads", "1"});
    eight.insert(eight.end(), {"--threads", "8"});
    EXPECT_EQ(runOk(one), runOk(eight));
}

TEST(TdcRun, ServeRecordsAReplayableTrace)
{
    const std::string path =
        testing::TempDir() + "tdc_run_serve_trace.bin";
    const std::string recorded =
        runOk({"--serve", "burst32/n3000/w50", "--record-trace", path,
               "--format", "csv"});
    const std::string replayed =
        runOk({"--serve", "trace:" + path, "--format", "csv"});
    // Identical data rows; only the spec named in the titles differs.
    const auto stripTitles = [](const std::string &text) {
        std::string kept;
        size_t start = 0;
        while (start < text.size()) {
            size_t end = text.find('\n', start);
            if (end == std::string::npos)
                end = text.size();
            if (text[start] != '#')
                kept += text.substr(start, end - start) + "\n";
            start = end + 1;
        }
        return kept;
    };
    EXPECT_EQ(stripTitles(recorded), stripTitles(replayed));
    std::remove(path.c_str());
}

TEST(TdcRun, ServeStealWindowPastTheTickSpanChangesNothing)
{
    // The port scheduler keeps one idle counter per cycle of the steal
    // window. No shard advances past the stream's tick span, so the
    // service caps the window there: the widest window runs (it used
    // to end in bad_alloc) and prints the bytes the span prints.
    const std::string trace = testing::TempDir() + "tdc_run_span.bin";
    for (const std::vector<std::string> &stream :
         {std::vector<std::string>{"burst16/n1e4/g64/w0"},
          // Writes and scrub steps both steal idle port slots.
          std::vector<std::string>{"burst16/n1e4/g64/w50",
                                   "--scrub-interval", "64"}}) {
        std::vector<std::string> args = {"--serve"};
        args.insert(args.end(), stream.begin(), stream.end());
        const auto serve = [&](const std::string &window) {
            std::vector<std::string> a = args;
            a.insert(a.end(), {"--steal-window", window});
            return runOk(a);
        };
        std::vector<std::string> record = args;
        record.insert(record.end(), {"--record-trace", trace});
        runOk(record);
        uint64_t span = 0;
        for (const ServiceRequest &r :
             buildRequests(parseRequestSpec("trace:" + trace), 0, 0))
            span = std::max(span, r.tick + 1);
        std::remove(trace.c_str());

        const std::string widest = serve("4294967295");
        EXPECT_EQ(widest, serve(std::to_string(span))) << stream[0];
        if (stream.size() > 1) {
            EXPECT_NE(widest, serve("0")) << "stealing never engaged";
        }
    }
}

TEST(TdcRun, ServeUsageErrorsExitTwoWithQuotedToken)
{
    const auto expectUsageError = [](const std::vector<std::string> &args,
                                     const std::string &needle) {
        std::string out, err;
        EXPECT_EQ(tdcRun(args, out, err), 2);
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        EXPECT_TRUE(out.empty()) << out;
    };
    expectUsageError({"--serve", "gauss/n100"}, "\"gauss\"");
    expectUsageError({"--serve", "uniform/n0"}, "\"n0\"");
    expectUsageError({"--serve", "uniform/q4"}, "\"q4\"");
    expectUsageError({"--serve", "trace:"}, "trace:");
    expectUsageError({"--serve", "uniform", "--scheme", "conv:secded/i4"},
                     "2d");
    expectUsageError({"--serve", "uniform", "--scheme", "2d:edc8/i0+vp32"},
                     "\"i0\"");
    expectUsageError({"--serve", "uniform", "--fault", "0x4"}, "\"0x4\"");
    expectUsageError({"--serve", "uniform", "--figure", "fig1"},
                     "--serve");
    expectUsageError({"--serve", "uniform", "--protection", "l1"},
                     "--serve");
    expectUsageError({"--serve", "uniform", "--scheme", "2d:edc8/i4+vp32",
                      "--scheme", "2d:edc8/i2+vp32"},
                     "at most one");
    expectUsageError({"--serve", "uniform", "--shards", "0"}, "--shards");
    expectUsageError({"--serve", "uniform", "--scrub-interval", "x"},
                     "--scrub-interval");
    // The window is an unsigned: 2^32 is refused, not wrapped to 0.
    expectUsageError({"--serve", "uniform", "--steal-window", "4294967296"},
                     "\"4294967296\"");
    expectUsageError({"--serve", "uniform", "--steal-window", "4294967304"},
                     "\"4294967304\"");
    expectUsageError({"--serve", "uniform/n0x10"}, "\"n0x10\"");
}

TEST(TdcRun, ServeRejectsAStoreOverTheWordCap)
{
    // 97 shards x 257 banks x 673 rows x 1 word = 2^24 + 1 words. The
    // config is refused before any request is generated or trace
    // written.
    const std::string trace = testing::TempDir() + "tdc_run_over_cap.bin";
    std::remove(trace.c_str());
    std::string out, err;
    EXPECT_EQ(tdcRun({"--serve", "uniform/n1e3", "--shards", "97",
                      "--banks", "257", "--scheme", "2d:edc8/i1+vp32/r673",
                      "--record-trace", trace},
                     out, err),
              2);
    EXPECT_TRUE(out.empty()) << out;
    for (const char *value : {"97 shards", "257 banks", "673 rows",
                              "16777216"})
        EXPECT_NE(err.find(value), std::string::npos) << err;
    EXPECT_FALSE(std::ifstream(trace).good()) << "trace was written";
}

TEST(TdcRun, ServeMissingTraceFileExitsOne)
{
    std::string out, err;
    EXPECT_EQ(tdcRun({"--serve", "trace:/no/such/trace.bin"}, out, err),
              1);
    EXPECT_NE(err.find("/no/such/trace.bin"), std::string::npos) << err;
}

TEST(TdcRun, CpuFlagReportsFeaturesAndBackendAndExitsZero)
{
    const std::string out = runOk({"--cpu"});
    EXPECT_NE(out.find("bmi2"), std::string::npos);
    EXPECT_EQ(out.find("avx2"), std::string::npos); // retired tier
    EXPECT_NE(out.find("best supported"), std::string::npos);
    EXPECT_NE(out.find("active"), std::string::npos);
    // The active row always names a valid backend.
    EXPECT_NE(out.find(simdBackendName(activeSimdBackend())),
              std::string::npos);

    // json carries the same report as structured tables.
    const std::string json = runOk({"--cpu", "--format", "json"});
    EXPECT_NE(json.find("\"cpu features\""), std::string::npos);
    EXPECT_NE(json.find("\"simd codec backend\""), std::string::npos);

    // The usage text advertises the flag; unknown flags still exit 2.
    EXPECT_NE(runOk({"--help"}).find("--cpu"), std::string::npos);
    std::string o, e;
    EXPECT_EQ(tdcRun({"--cpus"}, o, e), 2);
    EXPECT_NE(e.find("\"--cpus\""), std::string::npos);
}

TEST(TdcRun, MalformedEnvironmentExitsTwoWithQuotedValue)
{
    // A typo must not silently run the default configuration.
    for (const char *bad : {"scaler", "avx2", ""}) {
        ScopedEnv env("TDC_SIMD", bad);
        std::string out, err;
        EXPECT_EQ(tdcRun({"--cpu"}, out, err), 2) << bad;
        EXPECT_NE(err.find("TDC_SIMD"), std::string::npos) << err;
        EXPECT_NE(err.find("\"" + std::string(bad) + "\""),
                  std::string::npos)
            << err;
        EXPECT_TRUE(out.empty());
    }
    for (const char *bad : {"abc", "0", "4x", "257", "-1", " 4", "1e2", ""}) {
        ScopedEnv env("TDC_THREADS", bad);
        std::string out, err;
        EXPECT_EQ(tdcRun({"--figure", "table1"}, out, err), 2) << bad;
        EXPECT_NE(err.find("TDC_THREADS"), std::string::npos) << err;
        EXPECT_NE(err.find("\"" + std::string(bad) + "\""),
                  std::string::npos)
            << err;
        EXPECT_TRUE(out.empty());
    }

    ScopedEnv simd("TDC_SIMD", "scalar");
    ScopedEnv threads("TDC_THREADS", "256");
    EXPECT_NE(runOk({"--cpu", "--format", "csv"})
                  .find("TDC_SIMD request,scalar"),
              std::string::npos);
}

TEST(TdcRun, CampaignOutputIsBackendInvariant)
{
    // The same injection grid must emit identical bytes on the scalar
    // tier and on the dispatched tier, at one worker thread and at
    // eight — the no-output-drift guarantee TDC_SIMD is allowed to
    // rely on.
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:qecped/i2/r64",
        "--fault",  "8x8",             "--fault",  "col:6",
        "--events", "4",               "--seed",   "77",
    };
    std::string ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        setParallelThreads(1);
        ref = runOk(args);
    }
    ScopedSimdBackend backend(SimdBackend::kBmi2); // clamped to the CPU
    for (unsigned threads : {1u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(runOk(args), ref) << "threads=" << threads;
    }
}

TEST(TdcRun, ServeOutputIsBackendInvariant)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--serve", "zipf90/n5000/w40", "--scrub-interval", "13",
        "--fault-interval", "301", "--format", "json"};
    std::string ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        setParallelThreads(1);
        ref = runOk(args);
    }
    ScopedSimdBackend backend(SimdBackend::kBmi2); // clamped to the CPU
    for (unsigned threads : {1u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(runOk(args), ref) << "threads=" << threads;
    }
}

} // namespace
} // namespace tdc
