#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/gf2m.hh"
#include "../oracles/bch_naive.hh"

namespace tdc
{
namespace
{

class GF2mFieldTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    GF2m field{GetParam()};
};

TEST_P(GF2mFieldTest, AlphaHasFullOrder)
{
    // alpha^i for i in [0, order) must enumerate all nonzero elements.
    std::vector<bool> seen(field.size(), false);
    for (uint32_t i = 0; i < field.order(); ++i) {
        const uint32_t v = field.alphaPow(i);
        ASSERT_NE(v, 0u);
        ASSERT_FALSE(seen[v]) << "repeat at exponent " << i;
        seen[v] = true;
    }
}

TEST_P(GF2mFieldTest, LogIsInverseOfExp)
{
    for (uint32_t a = 1; a < field.size(); ++a)
        EXPECT_EQ(field.alphaPow(field.log(a)), a);
}

TEST_P(GF2mFieldTest, MultiplicationCommutesAndAssociates)
{
    Rng rng(31 + GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t a = uint32_t(rng.nextBelow(field.size()));
        const uint32_t b = uint32_t(rng.nextBelow(field.size()));
        const uint32_t c = uint32_t(rng.nextBelow(field.size()));
        EXPECT_EQ(field.mul(a, b), field.mul(b, a));
        EXPECT_EQ(field.mul(field.mul(a, b), c),
                  field.mul(a, field.mul(b, c)));
    }
}

TEST_P(GF2mFieldTest, DistributesOverAddition)
{
    Rng rng(32 + GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t a = uint32_t(rng.nextBelow(field.size()));
        const uint32_t b = uint32_t(rng.nextBelow(field.size()));
        const uint32_t c = uint32_t(rng.nextBelow(field.size()));
        EXPECT_EQ(field.mul(a, field.add(b, c)),
                  field.add(field.mul(a, b), field.mul(a, c)));
    }
}

TEST_P(GF2mFieldTest, InverseIsInverse)
{
    for (uint32_t a = 1; a < field.size(); ++a)
        EXPECT_EQ(field.mul(a, field.inv(a)), 1u);
}

TEST_P(GF2mFieldTest, DivisionMatchesInverseMultiply)
{
    Rng rng(33 + GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        const uint32_t a = uint32_t(rng.nextBelow(field.size()));
        const uint32_t b = 1 + uint32_t(rng.nextBelow(field.order()));
        EXPECT_EQ(field.div(a, b), field.mul(a, field.inv(b)));
    }
}

TEST_P(GF2mFieldTest, NegativeExponents)
{
    EXPECT_EQ(field.alphaPow(-1), field.inv(2)); // alpha = 2
    EXPECT_EQ(field.alphaPow(-int64_t(field.order())), 1u);
    EXPECT_EQ(field.alphaPow(0), 1u);
}

TEST_P(GF2mFieldTest, PowMatchesRepeatedMul)
{
    Rng rng(34 + GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        const uint32_t a = 1 + uint32_t(rng.nextBelow(field.order()));
        uint32_t acc = 1;
        for (int64_t e = 0; e < 8; ++e) {
            EXPECT_EQ(field.pow(a, e), acc);
            acc = field.mul(acc, a);
        }
    }
}

TEST_P(GF2mFieldTest, SqrMatchesMul)
{
    // Squaring is a bijection in characteristic 2, so the sqr table
    // shortcut must both agree with mul and enumerate every element.
    std::vector<bool> seen(field.size(), false);
    for (uint32_t a = 0; a < field.size(); ++a) {
        const uint32_t s = field.sqr(a);
        ASSERT_EQ(s, field.mul(a, a)) << a;
        ASSERT_FALSE(seen[s]) << a;
        seen[s] = true;
    }
}

TEST_P(GF2mFieldTest, SolveQuadraticExhaustive)
{
    // Every c: either no y with y^2 + y = c (odd trace, exactly half
    // the field) or the reported y and y^1 both solve it.
    uint32_t solvable = 0;
    for (uint32_t c = 0; c < field.size(); ++c) {
        const uint32_t y = field.solveQuadratic(c);
        if (y == GF2m::kNoRoot)
            continue;
        ++solvable;
        ASSERT_EQ(uint32_t(field.sqr(y) ^ y), c);
        const uint32_t y2 = y ^ 1;
        ASSERT_EQ(uint32_t(field.sqr(y2) ^ y2), c);
    }
    EXPECT_EQ(solvable, field.size() / 2);
}

TEST_P(GF2mFieldTest, MulColumnMatchesScalarMul)
{
    Rng rng(GetParam());
    std::vector<uint32_t> in(37), out(37);
    for (auto &v : in)
        v = uint32_t(rng.nextBelow(field.size()));
    for (uint32_t a : {uint32_t(0), uint32_t(1),
                       uint32_t(field.size() - 1), uint32_t(3)}) {
        field.mulColumn(a, in.data(), out.data(), in.size());
        for (size_t i = 0; i < in.size(); ++i)
            ASSERT_EQ(out[i], field.mul(a, in[i]));
    }
    // Aliasing in-place is allowed.
    std::vector<uint32_t> alias = in;
    field.mulColumn(5, alias.data(), alias.data(), alias.size());
    for (size_t i = 0; i < in.size(); ++i)
        ASSERT_EQ(alias[i], field.mul(5, in[i]));
}

INSTANTIATE_TEST_SUITE_P(Degrees, GF2mFieldTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10));

TEST(GFPoly, DegreeAndTrim)
{
    GFPoly p({1, 2, 0, 0});
    EXPECT_EQ(p.degree(), 1u);
    GFPoly zero({0, 0});
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.degree(), 0u);
}

TEST(GFPoly, EvalHorner)
{
    GF2m field(4);
    // p(x) = x^2 + x + 1 at x = alpha: alpha^2 ^ alpha ^ 1.
    GFPoly p({1, 1, 1});
    const uint32_t a = field.alphaPow(1);
    const uint32_t expect =
        field.add(field.add(field.mul(a, a), a), 1);
    EXPECT_EQ(oracle::polyEval(field, p, a), expect);
}

TEST(GFPoly, MulDegreeAdds)
{
    GF2m field(5);
    GFPoly a({1, 1});    // x + 1
    GFPoly b({2, 0, 1}); // x^2 + 2
    GFPoly c = GFPoly::mul(field, a, b);
    EXPECT_EQ(c.degree(), 3u);
}

TEST(GFPoly, RootsOfProductAreRootsOfFactors)
{
    GF2m field(6);
    Rng rng(40);
    const uint32_t r1 = 1 + uint32_t(rng.nextBelow(field.order()));
    const uint32_t r2 = 1 + uint32_t(rng.nextBelow(field.order()));
    // (x + r1)(x + r2)
    GFPoly p = GFPoly::mul(field, GFPoly({r1, 1}), GFPoly({r2, 1}));
    EXPECT_EQ(oracle::polyEval(field, p, r1), 0u);
    EXPECT_EQ(oracle::polyEval(field, p, r2), 0u);
}

TEST(GFPoly, AddIsXorOfCoefficients)
{
    GFPoly a({1, 2, 3});
    GFPoly b({3, 2, 1});
    GFPoly c = oracle::polyAdd(a, b);
    EXPECT_EQ(c.coeff(0), 2u);
    EXPECT_EQ(c.coeff(1), 0u);
    EXPECT_EQ(c.coeff(2), 2u);
}

} // namespace
} // namespace tdc
