/**
 * @file
 * StableHash contract: the digest is a pure, platform-independent
 * function of the framed update stream. The pinned digests below ARE
 * the on-disk cache-key format — if one of these changes, every
 * existing cache entry silently misses, so a change here must come
 * with a ResultCache::kFormatVersion bump.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/stable_hash.hh"

namespace tdc
{
namespace
{

TEST(StableHash, PinnedDigests)
{
    // Frozen values: recomputing them on any platform/compiler must
    // reproduce these exact hex strings (they name cache entry files).
    EXPECT_EQ(stableHash("").hex(), "2f357d9da874ef25e6a2f96e333f4330");
    EXPECT_EQ(stableHash("abc").hex(),
              "4730fcce876be31992d174c455838a74");
    EXPECT_EQ(stableHash("inject|scheme=2d:edc8/i4+vp32|fault=32x32|"
                         "trials=100|seed=12345")
                  .hex(),
              "2bc1b95a986c37461595415273df2231");
    // Self-consistency across incremental and one-shot hashing.
    StableHash h;
    h.update(std::string_view("abc"));
    EXPECT_EQ(h.digest().hex(), "4730fcce876be31992d174c455838a74");
}

TEST(StableHash, FramingSeparatesConcatenations)
{
    // "ab" + "c" must differ from "abc" (typed updates are framed), so
    // structurally different keys can never collide by concatenation.
    StableHash split;
    split.update(std::string_view("ab"));
    split.update(std::string_view("c"));
    StableHash whole;
    whole.update(std::string_view("abc"));
    EXPECT_NE(split.digest().hex(), whole.digest().hex());
}

TEST(StableHash, HexRoundTripsDigestFields)
{
    const StableDigest d = stableHash("round-trip");
    const std::string hex = d.hex();
    ASSERT_EQ(hex.size(), 32u);
    // hi is the first 16 hex chars, lo the last 16.
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  (unsigned long long)d.hi, (unsigned long long)d.lo);
    EXPECT_EQ(hex, buf);
}

TEST(StableHash, AvalanchesOnSmallKeyChanges)
{
    // One-character key edits flip about half the digest bits.
    const StableDigest a = stableHash("trials=100");
    const StableDigest b = stableHash("trials=101");
    const uint64_t diff_hi = a.hi ^ b.hi;
    const uint64_t diff_lo = a.lo ^ b.lo;
    const int bits = __builtin_popcountll(diff_hi) +
                     __builtin_popcountll(diff_lo);
    EXPECT_GT(bits, 32);
    EXPECT_LT(bits, 96);
}

} // namespace
} // namespace tdc
