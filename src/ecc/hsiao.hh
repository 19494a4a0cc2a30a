/**
 * @file
 * Generic Hsiao-style odd-weight-column SECDED code.
 */

#ifndef TDC_ECC_HSIAO_HH
#define TDC_ECC_HSIAO_HH

#include <vector>

#include "ecc/code.hh"

namespace tdc
{

/**
 * Single-error-correct double-error-detect (SECDED) code built with
 * the odd-weight-column construction of Hsiao: the parity-check matrix
 * H has r rows; every codeword bit contributes one distinct odd-weight
 * column. Data columns use weight >= 3 (smallest weights first, to
 * minimize XOR-tree size), check columns are the r unit vectors.
 *
 * Decoding:
 *  - syndrome zero                      -> clean
 *  - syndrome equals column i           -> single error at bit i, fixed
 *  - syndrome odd weight, not a column  -> detected (>= 3 odd errors)
 *  - syndrome even weight, nonzero      -> double error detected
 *
 * For k = 64 this yields the (72,64) code used in commercial caches;
 * for k = 256 it yields (266,256) — both word geometries used by the
 * paper (Figures 1, 2, 7).
 */
class HsiaoSecDedCode : public Code
{
  public:
    explicit HsiaoSecDedCode(size_t data_bits);

    size_t dataBits() const override { return k; }
    size_t checkBits() const override { return r; }
    BitVector computeCheck(const BitVector &data) const override;
    DecodeResult decode(const BitVector &codeword) const override;
    /** Allocation-free clean check (see Code::syndromeClean). */
    bool syndromeClean(const BitVector &codeword) const override;
    size_t correctCapability() const override { return 1; }
    size_t detectCapability() const override { return 2; }
    std::string name() const override;

    /**
     * Weight of the heaviest parity-check row: the widest XOR-tree
     * fan-in, used by the coding-latency model.
     */
    size_t maxRowWeight() const;

    /** Total number of ones in H: total XOR-tree gate count. */
    size_t totalRowWeight() const;

    /** Minimum r such that k data columns of odd weight >= 3 exist. */
    static size_t checkBitsFor(size_t data_bits);

  private:
    /**
     * Syndrome of the first @p nbytes bytes of @p words via the
     * per-byte table: one whole 64-bit word (8 table lookups) per
     * iteration, spread over four independent accumulators so the XOR
     * reduction pipelines instead of forming one serial dependency
     * chain.
     */
    uint64_t foldBytes(const uint64_t *words, size_t nbytes) const;

    size_t k;
    size_t r;
    /** H columns for all n = k + r codeword bits (bit i of the mask is
     *  row i of H). */
    std::vector<uint64_t> columns;

    /**
     * syndrome -> codeword bit position (or -1): single-error decode
     * is one lookup. r <= 11 at the widest word the scheme grammar
     * admits (512 bits), so the 2^r table stays small.
     */
    std::vector<int32_t> syndromeToPos;

    /**
     * Per-byte syndrome contributions: entry [i*256 + b] is the XOR of
     * the H columns of codeword byte i selected by the bits of b. A
     * full syndrome is then ceil(n/8) table XORs — the software shape
     * of an 8-way-flattened XOR tree. The same table serves the check
     * bits at any k: a data word is the first k codeword bits with
     * zeros above them, so folding its ceil(k/8) bytes picks up data
     * columns only.
     */
    std::vector<uint64_t> byteSyndromes;
};

} // namespace tdc

#endif // TDC_ECC_HSIAO_HH
