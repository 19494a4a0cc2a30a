/**
 * @file
 * Golden pins on the --serve output. ServiceDeterminism compares the
 * service at one thread count against another, and ServiceProperty
 * compares it against a serial oracle; neither notices a change that
 * moves both sides alike. Each case here runs one service config
 * through tdc_run in csv format and pins a digest of everything it
 * printed, so any change to the shard layout, the scrub walk, the
 * fault stream or the port model that moves a single byte fails.
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

/** Digest (hex) of the csv output of `tdc_run --serve @p args`. */
std::string
serveDigest(std::vector<std::string> args)
{
    args.insert(args.begin(), "--serve");
    args.insert(args.end(), {"--format", "csv"});
    std::string out, err;
    EXPECT_EQ(tdcRun(args, out, err), 0) << err;
    return stableHash(out).hex();
}

TEST(ServiceGoldenPins, FaultedZipfOnThreeShardsOfTwoBanks)
{
    EXPECT_EQ(serveDigest({"zipf90/n2e4", "--shards", "3", "--banks", "2",
                           "--scrub-interval", "64", "--fault-interval",
                           "512", "--fault", "32x32", "--seed", "12345"}),
              "00d2d626da3bb39b810e6f8b436cb5d6");
}

TEST(ServiceGoldenPins, TwoPortsWithoutStealing)
{
    EXPECT_EQ(serveDigest({"uniform/n2e4/w30", "--ports", "2",
                           "--steal-window", "0", "--scrub-interval", "16",
                           "--fault-interval", "700", "--seed", "3"}),
              "8881008d7810ca6c6917b5346f54405e");
}

TEST(ServiceGoldenPins, SecdedHorizontalBank)
{
    EXPECT_EQ(serveDigest({"burst16/n1e4/w40/g96", "--scheme",
                           "2d:secded/i4+vp32", "--scrub-interval", "32",
                           "--fault-interval", "256", "--fault", "single",
                           "--seed", "5"}),
              "d7fa42261b5274c8ef0d5ba9474bd1f0");
}

TEST(ServiceGoldenPins, SixtyFourRowBanks)
{
    EXPECT_EQ(serveDigest({"uniform/n1e4/w50", "--scheme",
                           "2d:edc8/i4+vp32/r64", "--fault-interval",
                           "300", "--fault", "40x40", "--seed", "9"}),
              "84a3d538e7f373b37d233bd5927806f9");
}

} // namespace
} // namespace tdc
