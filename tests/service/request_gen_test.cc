/**
 * @file
 * The request-stream generator contract, plus the grammar fuzz layer:
 *  - parseRequestSpec round-trips through RequestStreamSpec::spec();
 *  - generated streams honor their knobs (count, write fraction,
 *    address bounds, non-decreasing ticks, zipf skew, burst shape)
 *    and are pure functions of (spec, words, seed) at any pool size;
 *  - a few hundred malformed strings thrown at parseScheme,
 *    parseFaultModel, and parseRequestSpec all fail with
 *    std::invalid_argument quoting the offending input — never an
 *    accept, never a crash, never a different exception type.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "array/fault.hh"
#include "common/parallel.hh"
#include "scheme/scheme.hh"
#include "service/request_gen.hh"

namespace tdc
{
namespace
{

// --- grammar round-trip ---------------------------------------------

TEST(RequestSpec, ParsesTheDocumentedExamples)
{
    const RequestStreamSpec u = parseRequestSpec("uniform/n1e6/w30");
    EXPECT_EQ(u.dist, RequestDist::kUniform);
    EXPECT_EQ(u.count, 1000000u);
    EXPECT_EQ(u.writePct, 30u);

    const RequestStreamSpec z = parseRequestSpec("zipf90/n1e5");
    EXPECT_EQ(z.dist, RequestDist::kZipf);
    EXPECT_EQ(z.zipfHundredths, 90u);

    const RequestStreamSpec b = parseRequestSpec("burst128/n1e5/g512");
    EXPECT_EQ(b.dist, RequestDist::kBurst);
    EXPECT_EQ(b.burstLen, 128u);
    EXPECT_EQ(b.burstGap, 512u);

    const RequestStreamSpec t = parseRequestSpec("trace:/tmp/x.bin");
    EXPECT_EQ(t.dist, RequestDist::kTrace);
    EXPECT_EQ(t.tracePath, "/tmp/x.bin");
}

TEST(RequestSpec, SpecRoundTrips)
{
    const std::vector<std::string> specs = {
        "uniform/n100/w30",   "zipf80/n100000/w30",
        "zipf99/n1000/w0",    "burst64/n100000/w30",
        "burst32/n500/w100/g4096", "trace:/tmp/a.bin",
    };
    for (const std::string &s : specs) {
        const RequestStreamSpec parsed = parseRequestSpec(s);
        EXPECT_EQ(parseRequestSpec(parsed.spec()), parsed) << s;
    }
}

TEST(RequestSpec, DefaultsMatchTheGrammarDoc)
{
    const RequestStreamSpec s = parseRequestSpec("uniform");
    EXPECT_EQ(s.count, 100000u);
    EXPECT_EQ(s.writePct, 30u);
    const RequestStreamSpec z = parseRequestSpec("zipf");
    EXPECT_EQ(z.zipfHundredths, 80u);
    const RequestStreamSpec b = parseRequestSpec("burst");
    EXPECT_EQ(b.burstLen, 64u);
    EXPECT_EQ(b.burstGap, 0u); // rendered as 4 * burstLen at build time
}

// --- generator properties -------------------------------------------

TEST(RequestGen, HonorsCountBoundsAndTickOrder)
{
    for (const char *spec :
         {"uniform/n5000/w25", "zipf90/n5000/w25", "burst16/n5000/w25"}) {
        const std::vector<ServiceRequest> reqs =
            buildRequests(parseRequestSpec(spec), 2048, 42);
        ASSERT_EQ(reqs.size(), 5000u) << spec;
        uint64_t last_tick = 0;
        size_t writes = 0;
        for (const ServiceRequest &r : reqs) {
            EXPECT_LT(r.address, 2048u) << spec;
            EXPECT_GE(r.tick, last_tick) << spec;
            last_tick = r.tick;
            writes += r.op == RequestOp::kWrite;
        }
        // 25% +- 3% at n=5000.
        EXPECT_NEAR(double(writes) / 5000.0, 0.25, 0.03) << spec;
    }
}

TEST(RequestGen, WritePctEndpointsAreExact)
{
    for (const ServiceRequest &r :
         buildRequests(parseRequestSpec("uniform/n2000/w0"), 64, 1))
        EXPECT_EQ(r.op, RequestOp::kRead);
    for (const ServiceRequest &r :
         buildRequests(parseRequestSpec("uniform/n2000/w100"), 64, 1))
        EXPECT_EQ(r.op, RequestOp::kWrite);
}

TEST(RequestGen, ZipfSkewsAndUniformDoesNot)
{
    // Top-10% most popular addresses should hold far more than 10% of
    // zipf-90 traffic, and close to 10% of uniform traffic.
    const size_t words = 1000;
    const auto topDecileShare = [&](const char *spec) {
        std::vector<size_t> hits(words, 0);
        for (const ServiceRequest &r :
             buildRequests(parseRequestSpec(spec), words, 7))
            ++hits[r.address];
        std::sort(hits.rbegin(), hits.rend());
        size_t top = 0, total = 0;
        for (size_t i = 0; i < words; ++i) {
            total += hits[i];
            if (i < words / 10)
                top += hits[i];
        }
        return double(top) / double(total);
    };
    EXPECT_GT(topDecileShare("zipf90/n20000"), 0.5);
    EXPECT_LT(topDecileShare("uniform/n20000"), 0.2);
}

TEST(RequestGen, BurstsAreConsecutiveRunsWithGaps)
{
    const std::vector<ServiceRequest> reqs =
        buildRequests(parseRequestSpec("burst8/n64/g100"), 4096, 3);
    for (size_t i = 0; i < reqs.size(); ++i) {
        const size_t burst = i / 8, offset = i % 8;
        EXPECT_EQ(reqs[i].tick, burst * 100 + offset);
        if (offset != 0) {
            EXPECT_EQ(reqs[i].address,
                      (reqs[i - 1].address + 1) % 4096);
        }
    }
}

TEST(RequestGen, StreamIsAPureFunctionOfSpecWordsSeed)
{
    const RequestStreamSpec spec = parseRequestSpec("zipf85/n4000");
    const std::vector<ServiceRequest> base = buildRequests(spec, 512, 99);
    for (unsigned threads : {1u, 2u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(buildRequests(spec, 512, 99), base)
            << "threads=" << threads;
    }
    setParallelThreads(0);
    EXPECT_NE(buildRequests(spec, 512, 100), base) << "seed must matter";
}

// --- the malformed-spec fuzz corpus ---------------------------------

/** One malformed input aimed at one parser. */
struct FuzzCase
{
    enum Parser { kScheme, kFault, kRequest } parser;
    std::string input;
    /** Substring the error message must carry (usually the input). */
    std::string needle;
};

void
expectRejected(const FuzzCase &c)
{
    try {
        switch (c.parser) {
          case FuzzCase::kScheme: parseScheme(c.input); break;
          case FuzzCase::kFault: parseFaultModel(c.input); break;
          case FuzzCase::kRequest: parseRequestSpec(c.input); break;
        }
        FAIL() << "parser accepted malformed input \"" << c.input << "\"";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
            << "input \"" << c.input << "\" raised \"" << e.what()
            << "\" which does not quote \"" << c.needle << "\"";
    } catch (const std::exception &e) {
        FAIL() << "input \"" << c.input << "\" raised "
               << typeid(e).name() << " (\"" << e.what()
               << "\") instead of std::invalid_argument";
    }
}

std::vector<FuzzCase>
fuzzCorpus()
{
    std::vector<FuzzCase> cases;
    const auto scheme = [&](std::string in, std::string needle) {
        cases.push_back({FuzzCase::kScheme, std::move(in),
                         std::move(needle)});
    };
    const auto fault = [&](std::string in, std::string needle) {
        cases.push_back({FuzzCase::kFault, std::move(in),
                         std::move(needle)});
    };
    const auto request = [&](std::string in, std::string needle) {
        cases.push_back({FuzzCase::kRequest, std::move(in),
                         std::move(needle)});
    };

    // -- scheme grammar: hand-picked structural breaks ---------------
    scheme("", "");
    scheme("conv", "conv");
    scheme("2d", "2d");
    scheme(":", "\"\"");
    scheme("conv:", "conv:");
    scheme("2d:", "2d:");
    scheme("wt:", "wt:");
    scheme("prod:", "prod:");
    scheme("conv:secded", "missing interleave degree");
    scheme("2d:edc8+vp32", "missing interleave degree");
    scheme("conv:bogus/i4", "bogus");
    scheme("2d:edc9/i4+vp32", "edc9");
    scheme("conv:secded/i0", "i0");
    scheme("conv:secded/i65", "i65");
    scheme("conv:secded/i4x", "i4x");
    scheme("conv:secded/ix", "ix");
    scheme("conv:secded/i4/q7", "q7");
    scheme("conv:secded/i4/w7", "w7");
    scheme("conv:secded/i4/w513", "w513");
    scheme("conv:secded/i4/r0", "r0");
    scheme("conv:secded/i4/r65537", "r65537");
    scheme("conv:secded/i4/vp32", "vp32"); // vp is 2d-only
    scheme("2d:edc8/i4+vp0", "vp0");
    scheme("2d:edc8/i4+vp4097", "vp4097");
    scheme("2d:edc8/i4+vp512/r256", "vp512"); // vp exceeds data rows
    scheme("2d:edc8/i4+vpx", "vpx");
    scheme("2d:edc8/i4+vp32/w60", "60");     // not a multiple of 8
    scheme("2d:edc16/i2+vp32/w72", "72");    // not a multiple of 16
    scheme("prod:256", "256");
    scheme("prod:x", "x");
    scheme("prod:256x", "256x");
    scheme("prod:x256", "x256");
    scheme("prod:0x256", "0x256");
    scheme("prod:256x0", "256x0");
    scheme("prod:99999999x2", "99999999");
    scheme("conv::secded/i4", ":secded");
    scheme(" conv:secded/i4", " conv");
    scheme("CONV:secded/i4", "CONV"); // families are case-sensitive
    scheme("conv:secd3d/i4", "secd3d");

    // -- scheme grammar: dram family structural breaks ---------------
    scheme("dram", "dram");
    scheme("dram:", "dram:");
    scheme("dram:chipkill", "width");
    scheme("dram:iecc", "iecc");
    scheme("dram:secded/x4", "secded");
    scheme("dram:CHIPKILL/x4", "CHIPKILL"); // variants are case-sensitive
    scheme("dram:chipkill/x5", "x5");
    scheme("dram:chipkill/x", "x");
    scheme("dram:chipkill/x4/z9", "z9");
    scheme("dram:chipkill/x4/r0", "r0");
    scheme("dram:chipkill/x4/r4097", "r4097");
    scheme("dram:chipkill/x4/rx", "rx");
    scheme("dram:chipkill/x4/b0", "b0");
    scheme("dram:chipkill/x4/b65", "b65");
    scheme("dram:chipkill/x4/cols/extra", "extra");
    scheme("dram:iecc+chipkill/x8/columns", "columns");
    for (int i = 0; i < 8; ++i) {
        const std::string variant = "ddr" + std::to_string(i);
        scheme("dram:" + variant + "/x4", variant);
    }

    // -- scheme grammar: generated unknown families ------------------
    for (int i = 0; i < 24; ++i) {
        const std::string family = "fam" + std::to_string(i);
        scheme(family + ":x/i4", family);
    }

    // -- fault grammar: hand-picked structural breaks ----------------
    fault("", "");
    fault("bogus", "bogus");
    fault("singlebit", "singlebit");
    fault("Single", "Single");
    fault("row", "row");
    fault("row:", "row:");
    fault("row:0", "row:0");
    fault("row:abc", "row:abc");
    fault("row:65537", "row:65537");
    fault("row:-3", "row:-3");
    fault("col:", "col:");
    fault("col:0", "col:0");
    fault("col:1e3", "col:1e3");
    fault("x", "x");
    fault("32x", "32x");
    fault("x32", "x32");
    fault("axb", "axb");
    fault("32x32x32", "32x32x32");
    fault("32x32@", "32x32@");
    fault("32x32@0", "32x32@0");
    fault("32x32@-0.5", "32x32@-0.5");
    fault("32x32@1.5", "32x32@1.5");
    fault("32x32@dense", "32x32@dense");
    fault("32x32@nan", "32x32@nan");
    fault("32x32@0x0.8", "32x32@0x0.8");
    fault("32x32@ 0.5", "32x32@ 0.5");
    fault("@0.5", "@0.5");
    fault("fullrows", "fullrows");

    // -- fault grammar: device-derived DRAM shapes -------------------
    fault("chip:", "chip:");
    fault("chip:x", "chip:x");
    fault("chip:-1", "chip:-1");
    fault("chip:1.5", "chip:1.5");
    fault("chip:70000", "chip:70000");
    fault("chip:any2", "chip:any2");
    fault("chipkill", "chipkill"); // shape names are spec prefixes only
    fault("hammer:", "hammer:");
    fault("hammer:0", "hammer:0");
    fault("hammer:x", "hammer:x");
    fault("hammer:65537", "hammer:65537");
    fault("hammer:4@", "hammer:4@");
    fault("hammer:4@0", "hammer:4@0");
    fault("hammer:4@2", "hammer:4@2");
    fault("hammer:4@-0.5", "hammer:4@-0.5");
    fault("senseamp:", "senseamp:");
    fault("senseamp:0", "senseamp:0");
    fault("senseamp:-2", "senseamp:-2");
    fault("senseamp:tall", "senseamp:tall");

    // -- fault grammar: generated zero-dimension clusters ------------
    for (int d = 1; d <= 20; ++d) {
        fault("0x" + std::to_string(d), "0x" + std::to_string(d));
        fault(std::to_string(d) + "x0", std::to_string(d) + "x0");
    }
    // -- fault grammar: generated out-of-range densities -------------
    for (int i = 0; i < 10; ++i) {
        const std::string dens = std::to_string(2 + i) + ".5";
        fault("8x8@" + dens, "8x8@" + dens);
    }

    // -- scheme grammar: generated out-of-range degrees --------------
    for (int i = 0; i < 10; ++i) {
        const std::string tok = "i" + std::to_string(65 + i);
        scheme("conv:secded/" + tok, tok);
    }

    // -- request grammar: hand-picked structural breaks --------------
    request("", "");
    request("trace:", "trace:");
    request("gauss", "gauss");
    request("uniform2", "uniform2");
    request("zipfx", "zipfx");
    request("zipf0", "zipf0");
    request("zipf100", "zipf100");
    request("zipf1e2", "zipf1e2");
    request("burst0", "burst0");
    request("bursty", "bursty");
    request("uniform/", "\"\"");
    request("uniform//w5", "\"\"");
    request("uniform/x5", "x5");
    request("uniform/n", "\"n\"");
    request("uniform/n0", "n0");
    request("uniform/n-5", "n-5");
    request("uniform/n2e9", "n2e9");
    request("uniform/n1.5", "n1.5");
    request("uniform/n0x10", "n0x10"); // decimal only (common/spec_reader)
    request("uniform/n 5", "n 5");
    request("uniform/nnan", "nnan");
    request("uniform/nmany", "nmany");
    request("uniform/w101", "w101");
    request("uniform/w-1", "w-1");
    request("uniform/wfifty", "wfifty");
    request("uniform/b8", "b8");   // burst-only knob
    request("uniform/g8", "g8");   // burst-only knob
    request("zipf80/b8", "b8");
    request("burst8/b0", "b0");
    request("burst8/g0", "g0");
    request("burst8/gx", "gx");
    request("n100", "n100");
    request("UNIFORM", "UNIFORM");

    // -- request grammar: generated corrupt option tokens ------------
    for (int i = 0; i < 26; ++i) {
        const std::string tok(1, char('a' + i));
        if (tok == "n" || tok == "w" || tok == "b" || tok == "g")
            continue; // real knobs (rejected elsewhere when malformed)
        request("uniform/" + tok + "5", tok + "5");
    }
    for (int i = 0; i < 12; ++i) {
        const std::string head = "dist" + std::to_string(i);
        request(head + "/n100", head);
    }
    return cases;
}

TEST(GrammarFuzz, CorpusHoldsAtLeastTwoHundredCases)
{
    EXPECT_GE(fuzzCorpus().size(), 200u);
}

TEST(GrammarFuzz, EveryMalformedSpecThrowsInvalidArgumentQuotingIt)
{
    for (const FuzzCase &c : fuzzCorpus())
        expectRejected(c);
}

TEST(GrammarFuzz, ParseTwoDimConfigSharesTheSchemeGrammar)
{
    // The direct-config entry point rejects exactly like parseScheme,
    // plus non-2d families.
    EXPECT_THROW(parseTwoDimConfig("2d:edc8"), std::invalid_argument);
    EXPECT_THROW(parseTwoDimConfig("2d:edc8/i0+vp32"),
                 std::invalid_argument);
    EXPECT_THROW(parseTwoDimConfig("conv:secded/i4"),
                 std::invalid_argument);
    EXPECT_THROW(parseTwoDimConfig("nocolon"), std::invalid_argument);

    const TwoDimConfig cfg = parseTwoDimConfig("2d:edc16/i2+vp16/w256");
    EXPECT_EQ(cfg.horizontalKind, CodeKind::kEdc16);
    EXPECT_EQ(cfg.interleaveDegree, 2u);
    EXPECT_EQ(cfg.verticalParityRows, 16u);
    EXPECT_EQ(cfg.wordBits, 256u);
}

} // namespace
} // namespace tdc
