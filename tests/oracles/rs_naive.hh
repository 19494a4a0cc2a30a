/**
 * @file
 * The symbol-serial Reed-Solomon decoder the differential tests hold
 * SymbolRsCode::decode to. It reads only the code's public API (its
 * field and length) and recomputes every syndrome from scratch.
 */

#ifndef TDC_TESTS_ORACLES_RS_NAIVE_HH
#define TDC_TESTS_ORACLES_RS_NAIVE_HH

#include <vector>

#include "ecc/reed_solomon.hh"

namespace tdc::oracle
{

/** True iff S_j = word(alpha^j), j = 0..2, all vanish (Horner). */
inline bool
syndromeCleanNaive(const SymbolRsCode &rs, const std::vector<uint32_t> &word)
{
    const GF2m &field = rs.field();
    for (size_t j = 0; j < SymbolRsCode::kCheckSymbols; ++j) {
        const uint32_t x = field.alphaPow(int64_t(j));
        uint32_t acc = 0;
        for (size_t i = word.size(); i-- > 0;)
            acc = field.add(field.mul(acc, x), word[i]);
        if (acc != 0)
            return false;
    }
    return true;
}

/**
 * Trial-patch every (position, value) pair until the syndromes
 * vanish, O(n^2 * 2^b) per word; corrects @p word in place. Agrees
 * with decode() on every input by construction of the single-error
 * signature.
 */
inline SymbolDecodeResult
decodeNaive(const SymbolRsCode &rs, std::vector<uint32_t> &word)
{
    const GF2m &field = rs.field();
    SymbolDecodeResult res;
    if (syndromeCleanNaive(rs, word))
        return res;
    for (size_t p = 0; p < rs.codeSymbols(); ++p) {
        for (uint32_t e = 1; e < field.size(); ++e) {
            word[p] = field.add(word[p], e);
            if (syndromeCleanNaive(rs, word)) {
                res.status = DecodeStatus::kCorrected;
                res.corrections.push_back({p, e});
                return res;
            }
            word[p] = field.add(word[p], e);
        }
    }
    res.status = DecodeStatus::kDetectedUncorrectable;
    return res;
}

} // namespace tdc::oracle

#endif // TDC_TESTS_ORACLES_RS_NAIVE_HH
