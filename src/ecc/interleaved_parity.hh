/**
 * @file
 * EDCn: n-way bit-interleaved parity, the paper's horizontal detection
 * code (Section 3).
 */

#ifndef TDC_ECC_INTERLEAVED_PARITY_HH
#define TDC_ECC_INTERLEAVED_PARITY_HH

#include "ecc/code.hh"

namespace tdc
{

/**
 * EDCn stores n check bits per word; check bit i holds the even parity
 * of every n-th data bit starting at i:
 *
 *     check[i] = data[i] ^ data[i+n] ^ data[i+2n] ^ ...
 *
 * A contiguous burst of length <= n flips at most one bit of each
 * parity class, so every class it touches goes odd and the burst is
 * guaranteed detected. EDC8 over 64-bit data has the same check-bit
 * count and calculation latency as byte parity (the code used by
 * timing-critical L1 caches), which is why the paper builds the 2D
 * horizontal dimension out of it.
 *
 * The syndrome (per-class parity mismatch) localizes errors to parity
 * classes, i.e. to column positions modulo n. This is exactly the
 * information the 2D recovery algorithm combines with the vertical
 * code to locate erroneous bits (Section 4).
 *
 * n must divide 64 (EDC1, the single even parity, up to EDC64): then
 * bit p of every 64-bit data word falls in class p mod n, so check,
 * syndrome and clean test are one XOR-fold of the packed words.
 */
class InterleavedParityCode : public Code
{
  public:
    /**
     * @param data_bits word width k (a multiple of n for the classic
     *        layout; any k >= n works)
     * @param n interleave distance / number of check bits
     * @throws std::invalid_argument unless n divides 64
     */
    InterleavedParityCode(size_t data_bits, size_t n);

    size_t dataBits() const override { return k; }
    size_t checkBits() const override { return numClasses; }
    BitVector computeCheck(const BitVector &data) const override;
    DecodeResult decode(const BitVector &codeword) const override;
    size_t correctCapability() const override { return 0; }
    /** Guaranteed detection of any single flip (arbitrary position). */
    size_t detectCapability() const override { return 1; }
    /** Guaranteed detection of any contiguous burst of width <= n. */
    size_t burstDetectCapability() const override { return numClasses; }
    std::string name() const override;

    /**
     * Raw syndrome of a codeword: bit i set iff parity class i
     * mismatches. Used by the 2D recovery controller to map detected
     * errors onto column classes.
     */
    BitVector syndrome(const BitVector &codeword) const;

    /** Allocation-free clean check (see Code::syndromeClean). */
    bool syndromeClean(const BitVector &codeword) const override;

  private:
    /**
     * XOR-fold the low @p nbits of the packed @p words down to one bit
     * per parity class.
     */
    uint64_t foldClasses(const uint64_t *words, size_t nbits) const;

    /** Syndrome as a packed n-bit word. */
    uint64_t syndromeBits(const BitVector &codeword) const;

    size_t k;
    size_t numClasses;
};

} // namespace tdc

#endif // TDC_ECC_INTERLEAVED_PARITY_HH
