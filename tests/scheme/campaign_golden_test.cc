/**
 * @file
 * Golden-value pins for the figure-campaign summary tables. The
 * expected strings below are the *pre-port* outputs of the Figure
 * 1/2/7 benches (verified byte-identical when the benches moved onto
 * the campaign driver), so these tests guarantee
 * (a) the port did not change a single cell and (b) future changes to
 * the cost/VLSI models or the campaign driver cannot silently drift
 * the published tables. CI runs this suite by name and fails if any
 * of it is skipped.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scheme/figure_campaigns.hh"

namespace tdc
{
namespace
{

/**
 * Table cells are space-padded to the column width; the literals below
 * are stored without that invisible padding, so both sides are
 * normalized line-by-line before comparison. Every visible character
 * is still pinned exactly.
 */
std::string
stripTrailingSpaces(const std::string &text)
{
    std::istringstream is(text);
    std::string out, line;
    while (std::getline(is, line)) {
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        out += line;
        out += '\n';
    }
    return out;
}

#define EXPECT_TABLE_EQ(actual, expected) \
    EXPECT_EQ(stripTrailingSpaces(actual), stripTrailingSpaces(expected))

TEST(CampaignGoldenPins, Figure1StorageTable)
{
    EXPECT_TABLE_EQ(figure1StorageCampaign().render(),
              R"TBL(Code    HD  64b word  256b word
-------------------------------
EDC8    2   12.5%     3.1%
SECDED  4   12.5%     3.9%
DECTED  6   23.4%     7.4%
QECPED  10  45.3%     14.5%
OECNED  18  89.1%     28.5%
)TBL");
}

TEST(CampaignGoldenPins, Figure1EnergyTable)
{
    EXPECT_TABLE_EQ(figure1EnergyCampaign().render(),
              R"TBL(Code    64b word / 64kB array  256b word / 4MB array
----------------------------------------------------
EDC8    12.0%                  10.4%
SECDED  23.9%                  36.0%
DECTED  55.1%                  83.6%
QECPED  106.0%                 163.7%
OECNED  190.7%                 324.4%
)TBL");
}

TEST(CampaignGoldenPins, Figure2L1Table)
{
    EXPECT_TABLE_EQ(
        figure2EnergyCampaign(
            "--- Figure 2(b): 64kB cache, (72,64) SECDED words ---",
            64 * 1024, 64, 1)
            .render(),
        R"TBL(--- Figure 2(b): 64kB cache, (72,64) SECDED words ---

Degree  Delay-opt  Delay+Area-opt  Balanced  Power-opt
------------------------------------------------------
1:1     1.00       1.03            1.00      1.00
2:1     1.13       1.27            1.13      1.10
4:1     1.36       1.50            1.36      1.33
8:1     1.99       2.32            1.99      1.82
16:1    3.33       4.00            3.01      2.84
)TBL");
}

TEST(CampaignGoldenPins, Figure2L2Table)
{
    EXPECT_TABLE_EQ(
        figure2EnergyCampaign(
            "--- Figure 2(c): 4MB cache, (266,256) SECDED words, 8 "
            "banks ---",
            4 * 1024 * 1024, 256, 8)
            .render(),
        R"TBL(--- Figure 2(c): 4MB cache, (266,256) SECDED words, 8 banks ---

Degree  Delay-opt  Delay+Area-opt  Balanced  Power-opt
------------------------------------------------------
1:1     1.00       1.09            1.00      1.00
2:1     1.29       1.54            1.20      1.20
4:1     1.96       2.49            1.71      1.61
8:1     2.80       4.43            2.55      2.46
16:1    5.04       8.33            4.50      4.16
)TBL");
}

TEST(CampaignGoldenPins, Figure7L1Table)
{
    EXPECT_TABLE_EQ(
        figure7Campaign("--- Figure 7(a): 64kB L1 data cache (normalized "
                        "to SECDED+Intv2 = 100%) ---",
                        CacheGeometry::l1(),
                        {
                            "2d:edc8/i4+vp32",
                            "conv:dected/i16",
                            "conv:qecped/i8",
                            "conv:oecned/i4",
                            "wt:edc8/i4",
                        })
            .render(),
        R"TBL(--- Figure 7(a): 64kB L1 data cache (normalized to SECDED+Intv2 = 100%) ---

Scheme                  Code area  Coding latency  Dynamic power
----------------------------------------------------------------
2D(EDC8+Intv4,EDC32)    112%       58%             140%
DECTED+Intv16           188%       175%            283%
QECPED+Intv8            362%       300%            253%
OECNED+Intv4            712%       575%            272%
EDC8+Intv4(Wr-through)  100%       58%             237%
)TBL");
}

TEST(CampaignGoldenPins, Figure7L2Table)
{
    EXPECT_TABLE_EQ(
        figure7Campaign("--- Figure 7(b): 4MB L2 cache (normalized to "
                        "SECDED+Intv2 = 100%) ---",
                        CacheGeometry::l2(),
                        {
                            "2d:edc16/i2+vp32/w256",
                            "conv:dected/i16",
                            "conv:qecped/i8",
                            "conv:oecned/i4",
                        })
            .render(),
        R"TBL(--- Figure 7(b): 4MB L2 cache (normalized to SECDED+Intv2 = 100%) ---

Scheme                 Code area  Coding latency  Dynamic power
---------------------------------------------------------------
2D(EDC16+Intv2,EDC32)  170%       56%             120%
DECTED+Intv16          190%       162%            350%
QECPED+Intv8           370%       269%            288%
OECNED+Intv4           730%       500%            352%
)TBL");
}

} // namespace
} // namespace tdc
