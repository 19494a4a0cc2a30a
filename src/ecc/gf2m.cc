#include "ecc/gf2m.hh"

#include <cassert>

namespace tdc
{

namespace
{

/**
 * Primitive polynomials for GF(2^m), bit i = coefficient of x^i.
 * Standard minimal-weight choices (e.g. m=7: x^7+x^3+1, m=9:
 * x^9+x^4+1).
 */
uint32_t
primitivePolyFor(unsigned m)
{
    switch (m) {
      case 3: return 0b1011;             // x^3+x+1
      case 4: return 0b10011;            // x^4+x+1
      case 5: return 0b100101;           // x^5+x^2+1
      case 6: return 0b1000011;          // x^6+x+1
      case 7: return 0b10001001;         // x^7+x^3+1
      case 8: return 0b100011101;        // x^8+x^4+x^3+x^2+1
      case 9: return 0b1000010001;       // x^9+x^4+1
      case 10: return 0b10000001001;     // x^10+x^3+1
      case 11: return 0b100000000101;    // x^11+x^2+1
      case 12: return 0b1000001010011;   // x^12+x^6+x^4+x+1
      default:
        assert(false && "unsupported field degree");
        return 0;
    }
}

} // namespace

GF2m::GF2m(unsigned m_)
    : m(m_), fieldSize(uint32_t(1) << m_)
{
    const uint32_t primPoly = primitivePolyFor(m_);
    expTable.resize(2 * order());
    logTable.assign(fieldSize, 0);
    uint32_t value = 1;
    for (uint32_t i = 0; i < order(); ++i) {
        expTable[i] = value;
        logTable[value] = i;
        value <<= 1;
        if (value & fieldSize)
            value ^= primPoly;
    }
    assert(value == 1 && "polynomial is not primitive");
    // Duplicate the table so mul can skip one modular reduction.
    for (uint32_t i = order(); i < 2 * order(); ++i)
        expTable[i] = expTable[i - order()];

    // Quadratic-solution table: y^2 + y covers exactly the trace-zero
    // half of the field; iterating y ascending records the smaller
    // root of each reachable c.
    qrtTable.assign(fieldSize, kNoRoot);
    for (uint32_t y = 0; y < fieldSize; ++y) {
        const uint32_t c = sqr(y) ^ y;
        if (qrtTable[c] == kNoRoot)
            qrtTable[c] = y;
    }
}

uint32_t
GF2m::mul(uint32_t a, uint32_t b) const
{
    if (a == 0 || b == 0)
        return 0;
    return expTable[logTable[a] + logTable[b]];
}

uint32_t
GF2m::inv(uint32_t a) const
{
    assert(a != 0);
    return expTable[order() - logTable[a]];
}

uint32_t
GF2m::div(uint32_t a, uint32_t b) const
{
    assert(b != 0);
    if (a == 0)
        return 0;
    return expTable[(logTable[a] + order() - logTable[b]) % order()];
}

uint32_t
GF2m::alphaPow(int64_t e) const
{
    int64_t r = e % int64_t(order());
    if (r < 0)
        r += order();
    return expTable[size_t(r)];
}

uint32_t
GF2m::log(uint32_t a) const
{
    assert(a != 0);
    return logTable[a];
}

void
GF2m::mulColumn(uint32_t a, const uint32_t *in, uint32_t *out,
                size_t n) const
{
    if (a == 0) {
        for (size_t i = 0; i < n; ++i)
            out[i] = 0;
        return;
    }
    const uint32_t la = logTable[a];
    for (size_t i = 0; i < n; ++i)
        out[i] = in[i] == 0 ? 0 : expTable[la + logTable[in[i]]];
}

uint32_t
GF2m::pow(uint32_t a, int64_t e) const
{
    if (a == 0) {
        assert(e > 0);
        return 0;
    }
    const int64_t l = (int64_t(logTable[a]) * e) % int64_t(order());
    return alphaPow(l);
}

GFPoly::GFPoly(std::vector<uint32_t> coeffs)
    : c(std::move(coeffs))
{
    trim();
}

void
GFPoly::trim()
{
    while (c.size() > 1 && c.back() == 0)
        c.pop_back();
}

size_t
GFPoly::degree() const
{
    return c.empty() ? 0 : c.size() - 1;
}

bool
GFPoly::isZero() const
{
    for (uint32_t x : c)
        if (x != 0)
            return false;
    return true;
}

GFPoly
GFPoly::mul(const GF2m &field, const GFPoly &a, const GFPoly &b)
{
    if (a.isZero() || b.isZero())
        return GFPoly({0});
    std::vector<uint32_t> out(a.c.size() + b.c.size() - 1, 0);
    for (size_t i = 0; i < a.c.size(); ++i) {
        if (a.c[i] == 0)
            continue;
        for (size_t j = 0; j < b.c.size(); ++j)
            out[i + j] ^= field.mul(a.c[i], b.c[j]);
    }
    return GFPoly(std::move(out));
}

} // namespace tdc
