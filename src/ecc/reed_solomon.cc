#include "ecc/reed_solomon.hh"

#include <stdexcept>
#include <string>

namespace tdc
{

SymbolRsCode::SymbolRsCode(unsigned symbol_bits, size_t data_symbols)
    : field_(symbol_bits), data_(data_symbols)
{
    if (data_symbols == 0)
        throw std::invalid_argument(
            "SymbolRsCode: data_symbols must be >= 1");
    if (data_symbols + kCheckSymbols > field_.order())
        throw std::invalid_argument(
            "SymbolRsCode: " + std::to_string(data_symbols) +
            " data symbols do not fit GF(2^" +
            std::to_string(symbol_bits) + ") (n <= " +
            std::to_string(field_.order()) + ")");
}

void
SymbolRsCode::syndromes(const std::vector<uint32_t> &word,
                        uint32_t s[kCheckSymbols]) const
{
    // S_j = word(alpha^j), evaluated by Horner from the top symbol.
    for (size_t j = 0; j < kCheckSymbols; ++j) {
        const uint32_t x = field_.alphaPow(int64_t(j));
        uint32_t acc = 0;
        for (size_t i = word.size(); i-- > 0;)
            acc = field_.add(field_.mul(acc, x), word[i]);
        s[j] = acc;
    }
}

void
SymbolRsCode::encode(std::vector<uint32_t> &word) const
{
    // Solve the 3x3 Vandermonde system (nodes 1, alpha, alpha^2) for
    // the check symbols c0..c2 so that all three syndromes vanish:
    //   c0 +       c1 +         c2 = D0
    //   c0 + alpha c1 + alpha^2 c2 = D1
    //   c0 + a^2  c1 +  a^4    c2 = D2
    // where D_j is the data contribution to syndrome j. With
    // u = alpha + 1 (char 2), elimination gives
    //   c2 = (u*E1 + E2) / (u^3 + u^4),  E_j = D_j + D0,
    //   c1 = (E1 + c2*u^2) / u,  c0 = D0 + c1 + c2.
    uint32_t d[kCheckSymbols];
    for (size_t j = 0; j < kCheckSymbols; ++j) {
        const uint32_t x = field_.alphaPow(int64_t(j));
        uint32_t acc = 0;
        for (size_t i = word.size(); i-- > kCheckSymbols;)
            acc = field_.add(field_.mul(acc, x), word[i]);
        // Horner above stops at position 3; scale by x^3 explicitly.
        d[j] = field_.mul(acc, field_.pow(x, int64_t(kCheckSymbols)));
    }
    const uint32_t u = field_.add(field_.alphaPow(1), 1);
    const uint32_t u2 = field_.sqr(u);
    const uint32_t e1 = field_.add(d[1], d[0]);
    const uint32_t e2 = field_.add(d[2], d[0]);
    const uint32_t denom =
        field_.add(field_.mul(u2, u), field_.sqr(u2)); // u^3 + u^4
    const uint32_t c2 =
        field_.div(field_.add(field_.mul(u, e1), e2), denom);
    const uint32_t c1 = field_.div(field_.add(e1, field_.mul(c2, u2)), u);
    word[0] = field_.add(d[0], field_.add(c1, c2));
    word[1] = c1;
    word[2] = c2;
}

SymbolDecodeResult
SymbolRsCode::decode(std::vector<uint32_t> &word) const
{
    SymbolDecodeResult res;
    uint32_t s[kCheckSymbols];
    syndromes(word, s);
    if (s[0] == 0 && s[1] == 0 && s[2] == 0)
        return res;

    // Single-error signature: S0 = e, S1 = e*a^p, S2 = e*a^2p with
    // e != 0 and p inside the shortened codeword. Any double error
    // misses this signature (distance 4), so it lands in detected.
    if (s[0] != 0 && s[1] != 0) {
        const uint32_t ratio = field_.div(s[1], s[0]); // alpha^p
        const size_t p = field_.log(ratio);
        if (p < codeSymbols() && field_.mul(s[1], ratio) == s[2]) {
            word[p] = field_.add(word[p], s[0]);
            res.status = DecodeStatus::kCorrected;
            res.corrections.push_back({p, s[0]});
            return res;
        }
    }
    res.status = DecodeStatus::kDetectedUncorrectable;
    return res;
}

SymbolDecodeResult
SymbolRsCode::decodeErasure(std::vector<uint32_t> &word,
                            size_t erasure) const
{
    SymbolDecodeResult res;
    uint32_t s[kCheckSymbols];
    syndromes(word, s);
    if (s[0] == 0 && s[1] == 0 && s[2] == 0)
        return res;

    const uint32_t ap = field_.alphaPow(int64_t(erasure));

    // Hypothesis 1: the erased symbol is the only one in error.
    if (s[0] != 0 && field_.mul(s[0], ap) == s[1] &&
        field_.mul(s[1], ap) == s[2]) {
        word[erasure] = field_.add(word[erasure], s[0]);
        res.status = DecodeStatus::kCorrected;
        res.corrections.push_back({erasure, s[0]});
        return res;
    }

    // Hypothesis 2: erasure value e_p at p plus one unknown error e_q
    // at q (1 erasure + 1 error <= d - 1). Eliminating e_p:
    //   T1 = S1 + a^p S0 = e_q (a^q + a^p)
    //   T2 = S2 + a^p S1 = e_q a^q (a^q + a^p)
    // so a^q = T2 / T1; the remaining system is then consistent by
    // construction, leaving only the position-validity checks.
    const uint32_t t1 = field_.add(s[1], field_.mul(ap, s[0]));
    const uint32_t t2 = field_.add(s[2], field_.mul(ap, s[1]));
    if (t1 != 0 && t2 != 0) {
        const uint32_t aq = field_.div(t2, t1);
        const size_t q = field_.log(aq);
        if (q < codeSymbols() && q != erasure) {
            const uint32_t eq = field_.div(t1, field_.add(aq, ap));
            const uint32_t ep = field_.add(s[0], eq);
            word[q] = field_.add(word[q], eq);
            res.corrections.push_back({q, eq});
            if (ep != 0) {
                word[erasure] = field_.add(word[erasure], ep);
                res.corrections.push_back({erasure, ep});
            }
            res.status = DecodeStatus::kCorrected;
            return res;
        }
    }
    res.status = DecodeStatus::kDetectedUncorrectable;
    return res;
}

} // namespace tdc
