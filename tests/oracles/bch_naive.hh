/**
 * @file
 * The element-at-a-time BCH decoder: per-bit Horner syndromes,
 * polynomial Berlekamp-Massey and a Chien search over every codeword
 * position. The differential tests hold BchCode::decode to it bit for
 * bit. It reads only the code's public shape (k, r, t) and rebuilds
 * the field the constructor picks from it.
 */

#ifndef TDC_TESTS_ORACLES_BCH_NAIVE_HH
#define TDC_TESTS_ORACLES_BCH_NAIVE_HH

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/gf2m.hh"

namespace tdc::oracle
{

/** @p p evaluated at @p x by Horner's rule. */
inline uint32_t
polyEval(const GF2m &field, const GFPoly &p, uint32_t x)
{
    uint32_t acc = 0;
    for (size_t i = p.degree() + 1; i-- > 0;)
        acc = field.add(field.mul(acc, x), p.coeff(i));
    return acc;
}

/** Coefficient-wise sum (XOR) of @p a and @p b. */
inline GFPoly
polyAdd(const GFPoly &a, const GFPoly &b)
{
    std::vector<uint32_t> out(std::max(a.degree(), b.degree()) + 1);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = a.coeff(i) ^ b.coeff(i);
    return GFPoly(std::move(out));
}

/**
 * Degree of the t-error-correcting BCH generator over GF(2^m): the
 * summed sizes of the distinct cyclotomic cosets of 1..2t.
 * @pre 2t < 2^m - 1
 */
inline size_t
bchGeneratorDegree(unsigned m, size_t t)
{
    const uint32_t order = (uint32_t(1) << m) - 1;
    std::vector<bool> covered(order, false);
    size_t degree = 0;
    for (uint32_t i = 1; i <= 2 * t; ++i) {
        for (uint32_t j = i; !covered[j];
             j = uint32_t(2 * uint64_t(j) % order)) {
            covered[j] = true;
            ++degree;
        }
    }
    return degree;
}

/**
 * The field @p code is built over: the smallest GF(2^m), m in
 * [4, 12], with 2t < 2^m - 1 whose generator fits k + r <= 2^m - 1.
 */
inline const GF2m &
bchField(const BchCode &code)
{
    static const std::vector<GF2m> fields = [] {
        std::vector<GF2m> out;
        for (unsigned m = 4; m <= 12; ++m)
            out.emplace_back(m);
        return out;
    }();
    const size_t k = code.dataBits();
    const size_t t = code.correctCapability();
    for (const GF2m &field : fields) {
        if (2 * t < field.order() &&
            k + bchGeneratorDegree(field.degree(), t) <= field.order())
            return field;
    }
    throw std::logic_error("no GF(2^m) with m <= 12 fits this BCH code");
}

/** Decode @p codeword ([data | check]) the element-at-a-time way. */
inline DecodeResult
decodeNaive(const BchCode &code, const BitVector &codeword)
{
    const GF2m &field = bchField(code);
    const size_t k = code.dataBits();
    const size_t r = code.checkBits();
    const size_t t = code.correctCapability();
    DecodeResult result;
    result.data = codeword.slice(0, k);

    // S_1..S_2t, one Horner term per set bit. Check bit i is
    // polynomial coefficient i, data bit j coefficient r + j.
    std::vector<uint32_t> synd(2 * t, 0);
    for (size_t b = 0; b < codeword.size(); ++b) {
        if (!codeword.get(b))
            continue;
        const size_t p = b < k ? r + b : b - k;
        for (size_t j = 0; j < 2 * t; ++j)
            synd[j] ^= field.alphaPow(int64_t(j + 1) * int64_t(p));
    }
    if (std::all_of(synd.begin(), synd.end(),
                    [](uint32_t s) { return s == 0; })) {
        result.status = DecodeStatus::kClean;
        return result;
    }

    // Berlekamp-Massey over GF(2^m), normalised by the previous
    // discrepancy.
    GFPoly locator({1}); // C(x)
    GFPoly prev({1});    // B(x)
    size_t lfsrLen = 0;  // L
    size_t gap = 1;      // x^gap multiplier for B
    uint32_t prevDisc = 1;
    for (size_t n = 0; n < synd.size(); ++n) {
        uint32_t disc = synd[n];
        for (size_t i = 1; i <= lfsrLen; ++i)
            disc ^= field.mul(locator.coeff(i), synd[n - i]);
        if (disc == 0) {
            ++gap;
            continue;
        }
        // C' = C - (disc/prevDisc) * x^gap * B  (minus == plus here).
        const uint32_t scale = field.div(disc, prevDisc);
        std::vector<uint32_t> shifted(prev.degree() + gap + 1, 0);
        for (size_t i = 0; i <= prev.degree(); ++i)
            shifted[i + gap] = field.mul(scale, prev.coeff(i));
        GFPoly updated = polyAdd(locator, GFPoly(std::move(shifted)));
        if (2 * lfsrLen <= n) {
            prev = locator;
            prevDisc = disc;
            lfsrLen = n + 1 - lfsrLen;
            gap = 1;
        } else {
            ++gap;
        }
        locator = updated;
    }

    // Chien search: a root alpha^(-p) marks an error at coefficient p.
    // Only p < k + r is a codeword bit, so a root in the shortened
    // region never shows up and the root count flags the word.
    const size_t deg = locator.degree();
    std::vector<size_t> positions;
    if (deg > 0 && deg <= t) {
        for (size_t p = 0; p < k + r; ++p) {
            if (polyEval(field, locator, field.alphaPow(-int64_t(p))) == 0)
                positions.push_back(p);
        }
    }
    if (positions.empty() || positions.size() != deg) {
        result.status = DecodeStatus::kDetectedUncorrectable;
        return result;
    }
    for (size_t p : positions) {
        const size_t bit = p < r ? k + p : p - r;
        if (bit < k)
            result.data.flip(bit);
        result.correctedPositions.push_back(bit);
    }
    result.status = DecodeStatus::kCorrected;
    return result;
}

} // namespace tdc::oracle

#endif // TDC_TESTS_ORACLES_BCH_NAIVE_HH
