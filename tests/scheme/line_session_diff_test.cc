/**
 * @file
 * Differential test of the line-granular device sessions. The conv
 * and 2d sessions fill, scrub and verify a bank a row at a time (one
 * encoded line per row, rows that match their golden line skipped on
 * verify); the reference runs the same trial word by word through
 * storeWord / readWord (tests/core/word_trial.hh). Every
 * verdict must agree, for fused and per-slot clean-check geometries
 * alike, and through a
 * stuck-at mix that repairs rows through repairRow.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "../core/word_trial.hh"
#include "core/twod_array.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

using Verdict = DeviceSession::Verdict;

Verdict
toVerdict(const WordTrialVerdict &v)
{
    return v.silent ? Verdict::kSdc : v.due ? Verdict::kDue
                                            : Verdict::kCorrected;
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::kCorrected: return "corrected";
      case Verdict::kDue: return "DUE";
      case Verdict::kSdc: return "SDC";
    }
    return "?";
}

/** The schemes under test: 2d over every EDC width at fused and
 *  per-slot (i3) clean-check degrees, 2d over SECDED, and conv. */
std::vector<std::string>
sessionSpecs()
{
    std::vector<std::string> specs;
    for (const char *code : {"edc8", "edc16", "edc32"})
        for (const char *degree : {"1", "2", "3", "4", "8"})
            specs.push_back(std::string("2d:") + code + "/i" + degree +
                            "+vp32");
    specs.push_back("2d:secded/i4+vp32");
    specs.push_back("conv:secded/i4");
    return specs;
}

/**
 * One scripted session: the fault events of @p events injected in
 * order, then scrubAndVerify; with @p repair, every stuck row is then
 * repaired and one more @p after event is injected and verified.
 */
struct Script
{
    std::vector<FaultModel> events;
    bool repair = false;
    FaultModel after;
};

/** @p spec with stuck-at persistence (the grammar has no spelling). */
FaultModel
hard(const char *spec)
{
    FaultModel m = parseFaultModel(spec);
    m.persistence = FaultPersistence::kStuckAt;
    return m;
}

std::vector<Script>
scripts()
{
    std::vector<Script> out;
    for (const char *f :
         {"single", "row:32", "col:8", "32x32", "1x256", "chip:any"})
        out.push_back({{parseFaultModel(f)}, false, {}});
    // The stuck-at mix: hard events, repair, then a transient.
    out.push_back({{hard("row:32"), hard("8x8")}, true,
                   parseFaultModel("single")});
    out.push_back({{hard("32x32")}, true, parseFaultModel("row:4")});
    return out;
}

std::string
scriptName(const Script &s)
{
    std::string name;
    for (const FaultModel &e : s.events)
        name += (name.empty() ? "" : "+") + e.spec();
    if (s.repair)
        name += " repair " + s.after.spec();
    return name;
}

/** The scheme's own session (the line-granular path). */
std::vector<Verdict>
runSession(const ProtectionScheme &scheme, const Script &script,
           uint64_t seed)
{
    Rng rng(seed);
    const std::unique_ptr<DeviceSession> s = scheme.openSession(rng);
    for (const FaultModel &e : script.events)
        s->inject(e, rng);
    std::vector<Verdict> out = {s->scrubAndVerify()};
    if (script.repair) {
        for (const auto &[row, count] : s->stuckRows())
            s->repairRow(row);
        s->inject(script.after, rng);
        out.push_back(s->scrubAndVerify());
    }
    return out;
}

/** The same script word by word on a bare array. */
template <class Array>
std::vector<Verdict>
runReference(Array &arr, const Script &script, uint64_t seed)
{
    Rng rng(seed);
    const GoldenWords golden = fillWords(arr, rng);
    for (const FaultModel &e : script.events)
        FaultInjector(rng).inject(arr.cells(), e);
    std::vector<Verdict> out = {toVerdict(scrubAndReadBack(arr, golden))};
    if (script.repair) {
        for (const auto &[row, count] : arr.cells().stuckRows()) {
            arr.cells().clearRowFaults(row);
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                storeWord(arr, row, s, golden[row][s]);
        }
        FaultInjector(rng).inject(arr.cells(), script.after);
        out.push_back(toVerdict(scrubAndReadBack(arr, golden)));
    }
    return out;
}

/** The same script word by word on the bare array @p spec wraps. */
std::vector<Verdict>
runReference(const std::string &spec, const Script &script, uint64_t seed)
{
    if (spec == "conv:secded/i4") {
        ProtectedArray arr(256, makeCode(CodeKind::kSecDed, 64), 4);
        return runReference(arr, script, seed);
    }
    TwoDimArray arr(parseTwoDimConfig(spec));
    return runReference(arr, script, seed);
}

class LineSessionDiffTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LineSessionDiffTest, VerdictsMatchTheWordByWordReference)
{
    const std::string &spec = GetParam();
    const SchemePtr scheme = parseScheme(spec);
    constexpr int kTrials = 2;
    std::vector<int> seen(3, 0);
    for (const Script &script : scripts()) {
        for (int t = 0; t < kTrials; ++t) {
            const uint64_t seed = shardSeed(9001, uint64_t(t));
            const std::vector<Verdict> got =
                runSession(*scheme, script, seed);
            const std::vector<Verdict> want =
                runReference(spec, script, seed);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i], want[i])
                    << spec << " " << scriptName(script) << " trial " << t
                    << " step " << i << ": session " << verdictName(got[i])
                    << ", reference " << verdictName(want[i]);
                ++seen[size_t(got[i])];
            }
        }
    }
    // The scripts must reach both sides of the verdict line, or the
    // comparison proves little.
    EXPECT_GT(seen[size_t(Verdict::kCorrected)], 0) << spec;
    EXPECT_GT(seen[size_t(Verdict::kDue)] + seen[size_t(Verdict::kSdc)], 0)
        << spec;
}

INSTANTIATE_TEST_SUITE_P(
    ConvAnd2d, LineSessionDiffTest, ::testing::ValuesIn(sessionSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace
} // namespace tdc
