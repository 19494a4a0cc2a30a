/**
 * @file
 * Golden pin on the scheme grid at geometries off the byte and word
 * grid: SECDED, DECTED, QECPED and OECNED at data widths that are not
 * multiples of 8 (65, 100, 129), OECNED at 256 bits (a 72-bit BCH
 * remainder), single parity over 33-bit words, interleave degrees that
 * do not divide 64, and a 48-bit EDC16 word. The codecs' table engines
 * are held to their bit-loop oracles kernel by kernel; this pins the
 * bytes the whole injection campaign prints from them, the way
 * ServiceGoldenPins pins the service.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stable_hash.hh"
#include "driver/tdc_run.hh"

namespace tdc
{
namespace
{

TEST(OddGeometryGoldenPins, UnalignedWidthsAndNonDividingDegrees)
{
    const std::vector<std::string> args = {
        "--scheme", "conv:secded/i4/w65",   "--scheme", "conv:secded/i3/w100",
        "--scheme", "2d:secded/i4+vp32/w72", "--scheme", "conv:dected/i2/w65",
        "--scheme", "conv:qecped/i4/w100",  "--scheme", "conv:oecned/i2/w256",
        "--scheme", "conv:oecned/i4/w129",  "--scheme", "2d:edc8/i3+vp16/w64",
        "--scheme", "conv:parity/i8/w33",   "--scheme", "wt:edc16/i2/w48",
        "--fault",  "single",               "--fault",  "32x32",
        "--fault",  "row:8",                "--fault",  "col:4",
        "--fault",  "fullcol",              "--fault",  "2x2",
        "--fault",  "hammer:2@0.5",         "--fault",  "8x8@0.3",
        "--events", "60",                   "--seed",   "3",
        "--format", "csv",
    };
    std::string out, err;
    ASSERT_EQ(tdcRun(args, out, err), 0) << err;
    EXPECT_EQ(stableHash(out).hex(), "29dab803cef316f03f920916a13440e3");
}

} // namespace
} // namespace tdc
