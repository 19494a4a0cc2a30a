/**
 * @file
 * Spec-pattern expansion contract (--optimize grids): brace groups
 * expand deterministically (leftmost varies slowest), range steps
 * behave, malformed patterns throw std::invalid_argument quoting the
 * offending token, and multi-pattern expansion dedupes.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "scheme/spec_gen.hh"

namespace tdc
{
namespace
{

using Specs = std::vector<std::string>;

TEST(SpecGen, NoGroupsExpandsToItself)
{
    EXPECT_EQ(expandSpecPattern("conv:secded/i4"),
              Specs{"conv:secded/i4"});
}

TEST(SpecGen, AlternativesExpandInOrder)
{
    EXPECT_EQ(expandSpecPattern("2d:edc{8,16,32}/i4"),
              (Specs{"2d:edc8/i4", "2d:edc16/i4", "2d:edc32/i4"}));
}

TEST(SpecGen, CartesianProductLeftmostVariesSlowest)
{
    EXPECT_EQ(expandSpecPattern("a{1,2}b{3,4}"),
              (Specs{"a1b3", "a1b4", "a2b3", "a2b4"}));
}

TEST(SpecGen, UnitRange)
{
    EXPECT_EQ(expandSpecPattern("i{2..5}"),
              (Specs{"i2", "i3", "i4", "i5"}));
    EXPECT_EQ(expandSpecPattern("i{7..7}"), Specs{"i7"});
}

TEST(SpecGen, AdditiveStepRange)
{
    EXPECT_EQ(expandSpecPattern("vp{16..64..+16}"),
              (Specs{"vp16", "vp32", "vp48", "vp64"}));
    // A step overshooting hi stops before it.
    EXPECT_EQ(expandSpecPattern("w{1..10..+4}"),
              (Specs{"w1", "w5", "w9"}));
}

TEST(SpecGen, MultiplicativeStepRange)
{
    EXPECT_EQ(expandSpecPattern("i{1..8..x2}"),
              (Specs{"i1", "i2", "i4", "i8"}));
    EXPECT_EQ(expandSpecPattern("vp{16..64..x2}"),
              (Specs{"vp16", "vp32", "vp64"}));
}

TEST(SpecGen, ThreeGroupGridMatchesIssueExample)
{
    // The flagship --optimize example: 3 x 5 x 3 = 45 specs.
    const Specs specs = expandSpecPattern(
        "2d:edc{8,16,32}/i{1,2,4,8,16}+vp{16,32,64}");
    EXPECT_EQ(specs.size(), 45u);
    EXPECT_EQ(specs.front(), "2d:edc8/i1+vp16");
    EXPECT_EQ(specs.back(), "2d:edc32/i16+vp64");
}

TEST(SpecGen, MultiPatternDedupes)
{
    const Specs specs = expandSpecPatterns(
        {"2d:edc8/i{2,4}+vp32", "2d:edc8/i{4,8}+vp32"});
    EXPECT_EQ(specs, (Specs{"2d:edc8/i2+vp32", "2d:edc8/i4+vp32",
                            "2d:edc8/i8+vp32"}));
}

/** EXPECT that expanding @p pattern throws quoting @p token. */
void
expectPatternError(const std::string &pattern, const std::string &token)
{
    try {
        expandSpecPattern(pattern);
        FAIL() << "pattern \"" << pattern << "\" should have thrown";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
            << "error \"" << e.what() << "\" does not quote \"" << token
            << "\"";
    }
}

TEST(SpecGen, MalformedPatternsQuoteTheOffendingToken)
{
    expectPatternError("2d:edc{8,16", "{");
    expectPatternError("2d:edc8}/i4", "}");
    expectPatternError("2d:edc{}/i4", "{}");
    expectPatternError("2d:edc{8,,16}/i4", "{8,,16}");
    expectPatternError("i{4..2}", "{4..2}");
    expectPatternError("i{a..4}", "{a..4}");
    expectPatternError("i{1..4..x1}", "{1..4..x1}");
    expectPatternError("i{1..4..*2}", "{1..4..*2}");
    expectPatternError("i{1..4..+0}", "{1..4..+0}");
    expectPatternError("i{1..4..}", "{1..4..}");
    // Bounds and steps are plain decimal digits: no sign, space or hex.
    expectPatternError("conv:secded/i{+2..2}", "{+2..2}");
    expectPatternError("conv:secded/i{ 2.. 2}", "{ 2.. 2}");
    expectPatternError("i{0x2..4}", "{0x2..4}");
    expectPatternError("i{1..4..+ 1}", "{1..4..+ 1}");
    expectPatternError("", "empty");
}

TEST(SpecGen, GridLimitGuards)
{
    // 256 * 256 * 256 > 65536 must be rejected, not expanded.
    expectPatternError("a{1..256}b{1..256}c{1..256}", "grid limit");
}

} // namespace
} // namespace tdc
