/**
 * @file
 * The ProtectionScheme API contract:
 *  - every registered example spec parses, runs, and round-trips
 *    (parseScheme(s->spec()) reconstructs an equal scheme);
 *  - spec()/name() are canonical and single-sourced from
 *    codeKindName;
 *  - malformed specs and out-of-range degrees throw
 *    std::invalid_argument quoting the offending token;
 *  - injectAndRecover is a pure function of its arguments at every
 *    worker-pool size for every family, with verdicts matching the
 *    coverage guarantees (ported from the pre-registry campaign and
 *    recovery-sweep tests);
 *  - the figure campaigns built on the registry stay bit-identical
 *    across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hh"
#include "scheme/figure_campaigns.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

TEST(SchemeRegistry, BuiltinFamiliesArePresent)
{
    std::vector<std::string> keys;
    for (const SchemeFamily &family : schemeFamilies())
        keys.push_back(family.key);
    EXPECT_NE(std::find(keys.begin(), keys.end(), "conv"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "2d"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "wt"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "prod"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "dram"), keys.end());
}

TEST(SchemeRegistry, EveryRegisteredExampleRoundTrips)
{
    std::vector<std::string> examples;
    for (const SchemeFamily &family : schemeFamilies())
        examples.insert(examples.end(), family.examples.begin(),
                        family.examples.end());
    ASSERT_FALSE(examples.empty());
    for (const std::string &example : examples) {
        const SchemePtr s = parseScheme(example);
        ASSERT_NE(s, nullptr) << example;
        // parseScheme(s.spec()) == s: same canonical spec, same name,
        // same storage, same injection behaviour (spot-checked by the
        // determinism test below).
        const SchemePtr back = parseScheme(s->spec());
        EXPECT_EQ(back->spec(), s->spec()) << example;
        EXPECT_EQ(back->name(), s->name()) << example;
        EXPECT_DOUBLE_EQ(back->storageOverhead(), s->storageOverhead())
            << example;
        EXPECT_FALSE(s->name().empty()) << example;
    }
}

TEST(SchemeRegistry, CanonicalSpecOmitsDefaultGeometry)
{
    EXPECT_EQ(parseScheme("conv:secded/i4/w64/r256")->spec(),
              "conv:secded/i4");
    EXPECT_EQ(parseScheme("conv:SECDED/i4")->spec(), "conv:secded/i4");
    EXPECT_EQ(parseScheme("2d:edc8/i4")->spec(), "2d:edc8/i4+vp32");
    EXPECT_EQ(parseScheme("2d:edc8/i4/vp16")->spec(), "2d:edc8/i4+vp16");
    EXPECT_EQ(parseScheme("conv:secded/i2/w256")->spec(),
              "conv:secded/i2/w256");
}

TEST(SchemeRegistry, NamesComeFromCodeKindName)
{
    EXPECT_EQ(parseScheme("conv:secded/i4")->name(), "SECDED+Intv4");
    EXPECT_EQ(parseScheme("conv:oecned/i4")->name(), "OECNED+Intv4");
    EXPECT_EQ(parseScheme("2d:edc8/i4+vp32")->name(),
              "2D(EDC8+Intv4,EDC32)");
    EXPECT_EQ(parseScheme("2d:edc16/i2+vp32/w256")->name(),
              "2D(EDC16+Intv2,EDC32)");
    EXPECT_EQ(parseScheme("wt:edc8/i4")->name(), "EDC8+Intv4(Wr-through)");
    EXPECT_EQ(parseScheme("prod:256x256")->name(), "HVProd(256x256)");
}

TEST(SchemeRegistry, StorageOverheadsMatchTheBackends)
{
    EXPECT_NEAR(parseScheme("conv:secded/i4")->storageOverhead(), 0.125,
                1e-9);
    EXPECT_NEAR(parseScheme("prod:256x256")->storageOverhead(),
                512.0 / 65536.0, 1e-12);
    // 2D: horizontal EDC8 (12.5%) + 32/256 vertical rows = 25%.
    EXPECT_NEAR(parseScheme("2d:edc8/i4+vp32")->storageOverhead(), 0.25,
                1e-9);
}

TEST(SchemeRegistry, CostSpecSupport)
{
    EXPECT_TRUE(parseScheme("conv:dected/i16")->hasCostModel());
    EXPECT_TRUE(parseScheme("2d:edc8/i4+vp32")->hasCostModel());
    EXPECT_TRUE(parseScheme("wt:edc8/i4")->hasCostModel());
    EXPECT_FALSE(parseScheme("prod:64x64")->hasCostModel());
    EXPECT_THROW(parseScheme("prod:64x64")->costSpec(), std::logic_error);
    EXPECT_FALSE(parseScheme("dram:chipkill/x4")->hasCostModel());
    EXPECT_THROW(parseScheme("dram:chipkill/x4")->costSpec(),
                 std::logic_error);

    // The cost description matches the legacy SchemeSpec constructors
    // the golden-pinned Figure 7 tables were produced with.
    const SchemeSpec conv = parseScheme("conv:dected/i16")->costSpec();
    EXPECT_EQ(conv.style, SchemeStyle::kConventional);
    EXPECT_EQ(conv.horizontal, CodeKind::kDecTed);
    EXPECT_EQ(conv.interleave, 16u);
    const SchemeSpec twod = parseScheme("2d:edc8/i4+vp32")->costSpec();
    EXPECT_EQ(twod.style, SchemeStyle::kTwoDim);
    EXPECT_EQ(twod.verticalRows, 32u);
    const SchemeSpec wt = parseScheme("wt:edc8/i4")->costSpec();
    EXPECT_EQ(wt.style, SchemeStyle::kWriteThrough);
}

TEST(SchemeErrors, MalformedSpecsThrowWithOffendingTokenQuoted)
{
    const auto expectThrow = [](const std::string &spec,
                                const std::string &quoted) {
        try {
            parseScheme(spec);
            FAIL() << "no throw for " << spec;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(quoted),
                      std::string::npos)
                << spec << " -> " << e.what();
        }
    };

    // Family-level errors.
    expectThrow("secded", "missing \":\"");
    expectThrow("bogus:secded/i4", "\"bogus\"");
    // Unknown code / token.
    expectThrow("conv:edc9/i4", "\"edc9\"");
    expectThrow("conv:secded/i4/z9", "\"z9\"");
    // Missing or malformed numbers.
    expectThrow("conv:secded", "/i<deg>");
    expectThrow("conv:secded/i", "\"i\"");
    expectThrow("conv:secded/ix4", "\"ix4\"");
    // Out-of-range degrees and geometry.
    expectThrow("conv:secded/i0", "\"i0\"");
    expectThrow("conv:secded/i65", "\"i65\"");
    expectThrow("conv:secded/i4/w4", "\"w4\"");
    expectThrow("conv:secded/i4/r0", "\"r0\"");
    expectThrow("2d:edc8/i4+vp0", "\"vp0\"");
    expectThrow("2d:edc8/i4+vp512/r256", "vp512");
    // ...but the vp-vs-rows guard is a 2d-only constraint: small
    // conventional banks are fine (regression: the default vp=32 must
    // not be checked against conv/wt row counts).
    EXPECT_EQ(parseScheme("conv:secded/i4/r16")->spec(),
              "conv:secded/i4/r16");
    EXPECT_EQ(parseScheme("wt:edc8/i4/r8")->spec(), "wt:edc8/i4/r8");
    // EDC class-width mismatch.
    expectThrow("conv:edc32/i4/w40", "edc32");
    // Product-code geometry.
    expectThrow("prod:256", "\"256\"");
    expectThrow("prod:0x64", "\"0x64\"");
    expectThrow("prod:64x", "\"64x\"");
    expectThrow("prod:64x9999999", "\"64x9999999\"");
}

TEST(SchemeErrors, FaultModelSpecsThrowWithOffendingTokenQuoted)
{
    EXPECT_THROW(parseFaultModel("blob"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("0x4"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("4x"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("row:"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("col:abc"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("8x8@0"), std::invalid_argument);
    EXPECT_THROW(parseFaultModel("8x8@1.5"), std::invalid_argument);
    try {
        parseFaultModel("9x9x9");
        FAIL();
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("9x9x9"), std::string::npos);
    }

    // And the happy paths the campaigns rely on.
    EXPECT_EQ(parseFaultModel("32x32").describe(), "32x32");
    EXPECT_EQ(parseFaultModel("single").shape, FaultShape::kSingleBit);
    EXPECT_EQ(parseFaultModel("row:32").shape, FaultShape::kRowBurst);
    EXPECT_EQ(parseFaultModel("col:8").shape, FaultShape::kColumnBurst);
    EXPECT_EQ(parseFaultModel("fullrow").shape, FaultShape::kFullRow);
    EXPECT_EQ(parseFaultModel("fullcol").shape, FaultShape::kFullColumn);
    EXPECT_NEAR(parseFaultModel("16x16@0.5").density, 0.5, 1e-12);
}

TEST(SchemeInjection, IdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    const FaultModel fault = FaultModel::cluster(8, 8);
    for (const char *spec :
         {"conv:secded/i4/r64", "wt:edc8/i4/r64", "2d:edc8/i4+vp32",
          "prod:64x64", "dram:chipkill/x4", "dram:iecc+chipkill/x8"}) {
        const SchemePtr scheme = parseScheme(spec);
        setParallelThreads(1);
        const InjectionOutcome serial =
            scheme->injectAndRecover(fault, 8, 404);
        EXPECT_EQ(serial.trials, 8);
        EXPECT_EQ(serial.corrected + serial.detectedOnly + serial.silent,
                  serial.trials);
        for (unsigned threads : {2u, 4u, 8u}) {
            setParallelThreads(threads);
            EXPECT_EQ(scheme->injectAndRecover(fault, 8, 404), serial)
                << spec << " @ " << threads << " threads";
        }
    }
}

TEST(SchemeInjection, VerdictsMatchCoverageGuarantees)
{
    // Single-bit events: every scheme corrects them.
    const FaultModel single = FaultModel::singleBit();
    EXPECT_EQ(parseScheme("conv:secded/i4/r64")
                  ->injectAndRecover(single, 6, 1)
                  .verdict(),
              "corrected");
    EXPECT_EQ(parseScheme("2d:edc8/i4+vp32")
                  ->injectAndRecover(single, 6, 1)
                  .verdict(),
              "corrected");
    EXPECT_EQ(parseScheme("prod:64x64")
                  ->injectAndRecover(single, 6, 1)
                  .verdict(),
              "corrected");

    // A 2x2 block: in 2D coverage; ambiguous for the product code
    // (rectangular multi-bit patterns are the classic failure).
    const FaultModel block = FaultModel::cluster(2, 2);
    EXPECT_EQ(parseScheme("2d:edc8/i4+vp32")
                  ->injectAndRecover(block, 6, 2)
                  .verdict(),
              "corrected");
    EXPECT_EQ(
        parseScheme("prod:64x64")->injectAndRecover(block, 6, 2).corrected,
        0);

    // A 16x16 cluster is inside the guaranteed 32x32 2D coverage.
    EXPECT_EQ(parseScheme("2d:edc8/i4+vp32")
                  ->injectAndRecover(FaultModel::cluster(16, 16), 12, 2026)
                  .verdict(),
              "corrected");

    // Beyond-coverage clusters on the 2D bank are detected, not
    // silent (the EDC8 horizontal always sees odd per-word flips).
    const InjectionOutcome wide =
        parseScheme("2d:edc8/i4+vp32")
            ->injectAndRecover(FaultModel::cluster(33, 64), 4, 3);
    EXPECT_EQ(wide.corrected, 0);
    EXPECT_EQ(wide.silent, 0);
    EXPECT_EQ(wide.detectedOnly, 4);
}

TEST(SchemeInjection, WriteThroughInjectsLikeConventional)
{
    // Same EDC-coded array; duplication only changes the cost model.
    const FaultModel fault = FaultModel::cluster(4, 4);
    EXPECT_EQ(
        parseScheme("wt:edc8/i4/r64")->injectAndRecover(fault, 6, 77),
        parseScheme("conv:edc8/i4/r64")->injectAndRecover(fault, 6, 77));
}

TEST(SchemeInjection, OutcomeSummaryFormat)
{
    const InjectionOutcome out =
        parseScheme("conv:secded/i4/r64")
            ->injectAndRecover(FaultModel::singleBit(), 4, 9);
    EXPECT_EQ(out.summary(), "corrected 4/4");
}

TEST(SchemeCampaigns, Figure3InjectionGridIdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const std::string serial = figure3InjectionCampaign(3, 11).render();
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(figure3InjectionCampaign(3, 11).render(), serial)
            << threads << " threads";
    }
}

TEST(SchemeCampaigns, RelatedWorkAndMonteCarloGridsIdenticalAcrossThreads)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const std::string related = relatedWorkCampaign(3, 21).render();
    const std::string yield_mc =
        figure8YieldMonteCarloCampaign(50, 22).render();
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(relatedWorkCampaign(3, 21).render(), related);
        EXPECT_EQ(figure8YieldMonteCarloCampaign(50, 22).render(),
                  yield_mc);
    }
}

TEST(SchemeCampaigns, CustomInjectionCampaignLabelsFromRegistry)
{
    ThreadGuard guard;
    setParallelThreads(2);
    const CampaignResult res = customInjectionCampaign(
        {"conv:secded/i4/r64", "2d:edc8/i4+vp32"}, {"single", "4x4"}, 3,
        7);
    ASSERT_EQ(res.headers.size(), 3u);
    EXPECT_EQ(res.headers[1], "SECDED+Intv4");
    EXPECT_EQ(res.headers[2], "2D(EDC8+Intv4,EDC32)");
    ASSERT_EQ(res.rows.size(), 2u);
    EXPECT_EQ(res.rows[0][0], "1x1");
    EXPECT_EQ(res.rows[1][0], "4x4");
    // Every cell carries the events count.
    for (const auto &row : res.rows)
        for (size_t c = 1; c < row.size(); ++c)
            EXPECT_NE(row[c].find("/3"), std::string::npos) << row[c];
}

} // namespace
} // namespace tdc
