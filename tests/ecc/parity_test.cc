/**
 * @file
 * Single even parity, the factory's kParity code (built as EDC1).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/code_factory.hh"

namespace tdc
{
namespace
{

TEST(ParityCode, Geometry)
{
    const CodePtr code = makeCode(CodeKind::kParity, 64);
    EXPECT_EQ(code->dataBits(), 64u);
    EXPECT_EQ(code->checkBits(), 1u);
    EXPECT_EQ(code->codewordBits(), 65u);
    EXPECT_EQ(code->correctCapability(), 0u);
    EXPECT_EQ(code->detectCapability(), 1u);
}

TEST(ParityCode, CleanRoundTrip)
{
    const CodePtr code = makeCode(CodeKind::kParity, 32);
    Rng rng(1);
    for (int trial = 0; trial < 100; ++trial) {
        BitVector data(32, rng.next());
        BitVector cw = code->encode(data);
        auto result = code->decode(cw);
        EXPECT_TRUE(result.clean());
        EXPECT_EQ(result.data, data);
    }
}

TEST(ParityCode, DetectsEverySingleFlip)
{
    const CodePtr code = makeCode(CodeKind::kParity, 16);
    BitVector data(16, 0xBEEF);
    BitVector cw = code->encode(data);
    for (size_t i = 0; i < cw.size(); ++i) {
        BitVector bad = cw;
        bad.flip(i);
        EXPECT_TRUE(code->decode(bad).uncorrectable()) << "bit " << i;
    }
}

TEST(ParityCode, MissesDoubleFlips)
{
    // Double errors are invisible to single parity: this documents the
    // limitation that motivates stronger codes.
    const CodePtr code = makeCode(CodeKind::kParity, 16);
    BitVector cw = code->encode(BitVector(16, 0x1234));
    cw.flip(3);
    cw.flip(9);
    EXPECT_TRUE(code->decode(cw).clean());
}

} // namespace
} // namespace tdc
