/**
 * @file
 * Golden pin of exact injection counts: one customInjectionCampaign
 * grid over every scheme family and a spread of fault shapes, rendered
 * as ';'-separated values (scheme labels contain commas) with each
 * rendered cell followed by the raw corrected/detected-only/silent
 * counts of that cell's campaign (re-run through the documented
 * shardSeed(seed, cell) contract). Any change to a family's device
 * model (golden fill, RNG draw order, scrub or verify machinery) moves
 * some count and fails here, so refactors of the trial path must keep
 * this string byte-identical.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hh"
#include "scheme/figure_campaigns.hh"

namespace tdc
{
namespace
{

const std::vector<std::string> kSchemes = {
    "conv:secded/i4/r64",    "wt:edc8/i4/r64",
    "2d:edc8/i4+vp32/r64",   "2d:secded/i4+vp32/r64",
    "prod:64x64",            "dram:chipkill/x4",
    "dram:iecc+chipkill/x8",
};

const std::vector<std::string> kFaults = {
    "single",  "row:4",        "8x8",        "fullcol",
    "chip:any", "hammer:3@0.5", "senseamp:16",
};

constexpr int kTrials = 6;
constexpr uint64_t kSeed = 2024;

/** The grid as header row, then label + "summary c/d/s" cells. */
std::string
countsCsv()
{
    const CampaignResult res =
        customInjectionCampaign(kSchemes, kFaults, kTrials, kSeed);
    std::string out;
    for (size_t i = 0; i < res.headers.size(); ++i)
        out += (i ? ";" : "") + res.headers[i];
    out += '\n';
    for (size_t r = 0; r < res.rows.size(); ++r) {
        out += res.rows[r][0];
        for (size_t c = 0; c < kSchemes.size(); ++c) {
            const InjectionOutcome o =
                parseScheme(kSchemes[c])
                    ->injectAndRecover(parseFaultModel(kFaults[r]), kTrials,
                                       shardSeed(kSeed,
                                                 r * kSchemes.size() + c));
            out += ";" + res.rows[r][1 + c] + " " +
                   std::to_string(o.corrected) + "/" +
                   std::to_string(o.detectedOnly) + "/" +
                   std::to_string(o.silent);
        }
        out += '\n';
    }
    return out;
}

const char *const kGolden = R"CSV(Fault;SECDED+Intv4;EDC8+Intv4(Wr-through);2D(EDC8+Intv4,EDC32);2D(SECDED+Intv4,EDC32);HVProd(64x64);Chipkill(x4,RS15/12);IECC+Chipkill(x8,RS11/8)
1x1;corrected 6/6 6/0/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0
4x1 burst;corrected 6/6 6/0/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;detected only 0/6 0/6/0;partially corrected 1/6 1/5/0;partially corrected 5/6 5/1/0
8x8;detected only 0/6 0/6/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;SILENT corruption 0/6 0/0/6;detected only 0/6 0/6/0;partially corrected 1/6 1/5/0
full column;corrected 6/6 6/0/0;detected only 0/6 0/6/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0
chip kill;corrected 6/6 6/0/0;detected only 0/6 0/6/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0
hammer 3 rows @50%;SILENT corruption 0/6 0/0/6;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;NOT covered 0/6 0/4/2;detected only 0/6 0/6/0;detected only 0/6 0/6/0
sense-amp 2x16;corrected 6/6 6/0/0;detected only 0/6 0/6/0;corrected 6/6 6/0/0;corrected 6/6 6/0/0;SILENT corruption 0/6 0/0/6;partially corrected 5/6 5/1/0;corrected 6/6 6/0/0
)CSV";

TEST(InjectionGoldenPins, CustomGridCountsAreByteIdentical)
{
    // Thread invariance is SchemeInjection's job; this pins the values.
    EXPECT_EQ(countsCsv(), kGolden);
}

} // namespace
} // namespace tdc
