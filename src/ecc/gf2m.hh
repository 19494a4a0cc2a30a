/**
 * @file
 * Finite-field arithmetic over GF(2^m), 3 <= m <= 12, via log/antilog
 * tables. Substrate for the BCH codecs.
 */

#ifndef TDC_ECC_GF2M_HH
#define TDC_ECC_GF2M_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tdc
{

/**
 * GF(2^m) built from a fixed primitive polynomial per m. Elements are
 * represented as integers 0..2^m-1 (polynomial basis). alpha = 2 is a
 * primitive element.
 */
class GF2m
{
  public:
    explicit GF2m(unsigned m);

    unsigned degree() const { return m; }

    /** Field size 2^m. */
    uint32_t size() const { return fieldSize; }

    /** Multiplicative group order 2^m - 1. */
    uint32_t order() const { return fieldSize - 1; }

    /** Field addition = XOR. */
    uint32_t add(uint32_t a, uint32_t b) const { return a ^ b; }

    uint32_t mul(uint32_t a, uint32_t b) const;
    uint32_t inv(uint32_t a) const;
    uint32_t div(uint32_t a, uint32_t b) const;

    /** alpha^e for any integer exponent (reduced mod order). */
    uint32_t alphaPow(int64_t e) const;

    /**
     * alpha^e for an already-reduced exponent 0 <= e < 2*order():
     * a single table read, no modular reduction. The decode hot loops
     * (Chien sweep, syndrome squaring chains) maintain exponents in
     * this range themselves.
     */
    uint32_t expDirect(uint32_t e) const { return expTable[e]; }

    /** Discrete log base alpha. @pre a != 0 */
    uint32_t log(uint32_t a) const;

    /** a^e for field element a. */
    uint32_t pow(uint32_t a, int64_t e) const;

    /** a^2: one log and one exp read (Frobenius map). */
    uint32_t sqr(uint32_t a) const
    {
        return a == 0 ? 0 : expTable[2 * logTable[a]];
    }

    /**
     * Unique square root (the Frobenius map is a bijection in
     * characteristic 2): sqrt(a) = a^((2^m - 1 + 1) / 2) via
     * log/antilog — the group order is odd, so (order + 1) / 2
     * inverts doubling mod order.
     */
    uint32_t sqrt(uint32_t a) const
    {
        if (a == 0)
            return 0;
        return expTable[uint32_t(uint64_t(logTable[a]) *
                                 ((order() + 1) / 2) % order())];
    }

    /**
     * Batch scale: out[i] = a * in[i] for i in [0, n). The log of
     * @p a is hoisted out of the loop, so each element costs one log
     * and one exp table read. Aliasing out == in is allowed.
     */
    void mulColumn(uint32_t a, const uint32_t *in, uint32_t *out,
                   size_t n) const;

    /** Sentinel returned by solveQuadratic when no root exists. */
    static constexpr uint32_t kNoRoot = 0xFFFFFFFFu;

    /**
     * The smaller root y of y^2 + y = c (the other is y ^ 1), or
     * kNoRoot when c has no such decomposition (odd trace). One table
     * read; the backbone of the closed-form quadratic/cubic error
     * locators.
     */
    uint32_t solveQuadratic(uint32_t c) const { return qrtTable[c]; }

  private:
    unsigned m;
    uint32_t fieldSize;
    std::vector<uint32_t> expTable; // expTable[i] = alpha^i, 0..2*order
    std::vector<uint32_t> logTable; // logTable[a] = log_alpha(a)
    std::vector<uint32_t> qrtTable; // qrtTable[c] = min y: y^2+y=c
};

/**
 * Polynomial over GF(2^m), coefficient i = coeff of x^i. Minimal
 * operations needed by BCH generator construction.
 */
class GFPoly
{
  public:
    GFPoly() = default;
    explicit GFPoly(std::vector<uint32_t> coeffs);

    /** Degree; the zero polynomial reports degree 0. */
    size_t degree() const;

    uint32_t coeff(size_t i) const { return i < c.size() ? c[i] : 0; }

    bool isZero() const;

    static GFPoly mul(const GF2m &field, const GFPoly &a, const GFPoly &b);

  private:
    void trim();
    std::vector<uint32_t> c;
};

} // namespace tdc

#endif // TDC_ECC_GF2M_HH
