/**
 * @file
 * The one spec reader: splitSpec keeps empty tokens, and each bounded
 * reader takes exactly the decimal rule of common/spec_reader.hh up
 * to both ends of its range, refusing everything else with the
 * context and the token quoted.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/spec_reader.hh"

namespace tdc
{
namespace
{

using Tokens = std::vector<std::string>;

TEST(SpecReader, ReadsEachRuleToTheEndsOfItsRange)
{
    EXPECT_EQ(splitSpec("i4//vp32", "/+"), (Tokens{"i4", "", "vp32"}));
    EXPECT_EQ(splitSpec("edc8/i4+vp32", "/+"),
              (Tokens{"edc8", "i4", "vp32"}));
    EXPECT_EQ(splitSpec("", "/"), Tokens{""});
    EXPECT_EQ(splitSpec("a,", ","), (Tokens{"a", ""}));

    const SpecReader in("ctx");
    const auto refused = [&](auto read, const std::string &token) {
        try {
            read();
            ADD_FAILURE() << "accepted \"" << token << "\"";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("ctx: ", 0), 0u) << what;
            EXPECT_NE(what.find("\"" + token + "\""), std::string::npos)
                << what;
        }
    };

    // digits: [0-9]+ at full uint64 precision, both ends inclusive.
    EXPECT_EQ(in.digits("i1", "1", 1, 64), 1u);
    EXPECT_EQ(in.digits("i64", "64", 1, 64), 64u);
    EXPECT_EQ(in.digits("007", 0, 10), 7u);
    EXPECT_EQ(in.digits("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
    for (const char *bad : {"0", "65", "", "+2", "-0", " 2", "2 ", "0x10",
                            "1e1", "2.0"})
        refused([&] { in.digits(bad, 1, 64); }, bad);
    refused([&] { in.digits("i65", "65", 1, 64); }, "i65");
    refused([&] { in.digits("18446744073709551616", 0, UINT64_MAX); },
            "18446744073709551616");
    try {
        in.digits("i65", "65", 1, 64);
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "ctx: expected a decimal integer in [1, 64], got "
                     "\"i65\"");
    }

    // count: a whole real, so scientific notation and a sign pass.
    EXPECT_EQ(in.count("1", 1, 100000000), 1u);
    EXPECT_EQ(in.count("1e8", 1, 100000000), 100000000u);
    EXPECT_EQ(in.count("+5", 1, 10), 5u);
    EXPECT_EQ(in.count(".5e1", 1, 10), 5u);
    EXPECT_EQ(in.count("5.", 1, 10), 5u);
    for (const char *bad : {"0", "100000001", "1.5e8", "2.5", "0x10",
                            " 5", "5 ", "nan", "inf", "1e400", "1e",
                            "e5", ".", "--5", ""})
        refused([&] { in.count(bad, 1, 100000000); }, bad);

    // real: finite decimal numbers; kAboveZero opens the low end.
    EXPECT_EQ(in.real("1", kAboveZero, 1.0), 1.0);
    EXPECT_EQ(in.real(".5", kAboveZero, 1.0), 0.5);
    EXPECT_EQ(in.real("5e-324", kAboveZero, 1.0), kAboveZero);
    EXPECT_EQ(in.real("0", 0.0, 1e9), 0.0);
    EXPECT_EQ(in.real("1e9", 0.0, 1e9), 1e9);
    EXPECT_TRUE(std::signbit(in.real("-0", 0.0, 1.0)));
    for (const char *bad : {"0", "1.0000001", "-0.5", "nan", "NaN", "inf",
                            "-inf", "0x0.8", "0x1p-1", " 0.5", "0.5 ",
                            "1e400", "1e-400", ""})
        refused([&] { in.real(bad, kAboveZero, 1.0); }, bad);
    try {
        in.real("16x16@nan", "nan", kAboveZero, 1.0);
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "ctx: expected a decimal number in (0, 1], got "
                     "\"16x16@nan\"");
    }
}

} // namespace
} // namespace tdc
