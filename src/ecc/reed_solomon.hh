/**
 * @file
 * Symbol-organised Reed-Solomon SSC-DSD codec over GF(2^b) — the
 * chipkill-class counterpart of the bit-organised codes in code.hh.
 *
 * The code is a distance-4 RS code with three check symbols (roots
 * alpha^0..alpha^2), shortened to n = k + 3 symbols: it corrects any
 * single symbol error (one whole x4/x8 DRAM chip burst), detects any
 * double symbol error, and in erasure mode corrects one known-dead
 * symbol plus one additional unknown symbol error (1 erasure + 1
 * error <= d - 1 = 3). The differential tests hold decode() to a
 * symbol-serial trial-patch oracle in tests/oracles/.
 */

#ifndef TDC_ECC_REED_SOLOMON_HH
#define TDC_ECC_REED_SOLOMON_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ecc/code.hh"
#include "ecc/gf2m.hh"

namespace tdc
{

/** Result of one symbol-codeword decode. */
struct SymbolDecodeResult
{
    DecodeStatus status = DecodeStatus::kClean;

    /**
     * (position, xor-value) pairs the decoder applied to the word
     * (empty unless status == kCorrected). Positions use the codeword
     * layout [check 0..2 | data 3..n-1].
     */
    std::vector<std::pair<size_t, uint32_t>> corrections;

    bool clean() const { return status == DecodeStatus::kClean; }
    bool corrected() const { return status == DecodeStatus::kCorrected; }
    bool uncorrectable() const
    {
        return status == DecodeStatus::kDetectedUncorrectable;
    }
};

/**
 * Shortened distance-4 Reed-Solomon code over GF(2^b):
 * n = dataSymbols + 3 <= 2^b - 1 symbols, check symbols at codeword
 * positions 0..2 and data symbols at positions 3..n-1. Symbols are
 * field elements 0..2^b-1.
 */
class SymbolRsCode
{
  public:
    static constexpr size_t kCheckSymbols = 3;

    /**
     * @param symbol_bits  b, bits per symbol (one chip burst), 3..12.
     * @param data_symbols k, data symbols per codeword;
     *                     k + 3 <= 2^b - 1.
     */
    SymbolRsCode(unsigned symbol_bits, size_t data_symbols);

    unsigned symbolBits() const { return field_.degree(); }
    size_t dataSymbols() const { return data_; }
    size_t codeSymbols() const { return data_ + kCheckSymbols; }

    /** Check/data symbol ratio (the chipkill storage overhead). */
    double storageOverhead() const
    {
        return double(kCheckSymbols) / double(data_);
    }

    const GF2m &field() const { return field_; }

    /**
     * Fill the three check symbols of @p word (positions 0..2) from
     * its data symbols (positions 3..n-1).
     * @pre word.size() == codeSymbols()
     */
    void encode(std::vector<uint32_t> &word) const;

    /**
     * SSC-DSD decode: corrects any single symbol error in place,
     * detects (without miscorrection) any double symbol error.
     */
    SymbolDecodeResult decode(std::vector<uint32_t> &word) const;

    /**
     * Erasure decode for one known-dead symbol position @p erasure
     * (e.g. a chip previously declared dead): corrects the erased
     * symbol plus up to one additional unknown symbol error in place.
     * @pre erasure < codeSymbols()
     */
    SymbolDecodeResult decodeErasure(std::vector<uint32_t> &word,
                                     size_t erasure) const;

  private:
    /** S_j = sum_i word[i] * alpha^(i*j) for j = 0..2. */
    void syndromes(const std::vector<uint32_t> &word,
                   uint32_t s[kCheckSymbols]) const;

    GF2m field_;
    size_t data_;
};

} // namespace tdc

#endif // TDC_ECC_REED_SOLOMON_HH
