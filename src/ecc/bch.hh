/**
 * @file
 * Shortened binary BCH codes: the multi-bit ECC family the paper's
 * conventional baselines are built from (DECTED, QECPED, OECNED).
 */

#ifndef TDC_ECC_BCH_HH
#define TDC_ECC_BCH_HH

#include <memory>
#include <vector>

#include "ecc/code.hh"
#include "ecc/gf2m.hh"

namespace tdc
{

/**
 * Systematic shortened binary BCH code correcting t errors in k data
 * bits.
 *
 * Construction: the smallest GF(2^m) is chosen such that the shortened
 * code fits the primitive length (k + deg(g) <= 2^m - 1). The
 * generator g(x) is the LCM of the minimal polynomials of
 * alpha^1..alpha^2t. Encoding appends the remainder of d(x)*x^r mod
 * g(x); decoding computes syndromes S_1..S_2t, runs Berlekamp-Massey
 * to obtain the error-locator polynomial, and locates errors by Chien
 * search. If the locator degree disagrees with the root count, or a
 * root falls in the shortened (always-zero) region, the word is
 * flagged uncorrectable.
 *
 * Codeword layout follows the Code interface: [data | check]. Data
 * bit j corresponds to polynomial coefficient r + j; check bit i to
 * coefficient i.
 *
 * With t = 2/4/8 over 64-bit data this reproduces exactly the
 * geometries the paper quotes once the extended parity bit is added
 * (see ExtendedBchCode): (79->80,64) DECTED, (92->93,64) QECPED,
 * (120->121,64) OECNED.
 */
class BchCode : public Code
{
  public:
    /**
     * @param data_bits data word width k
     * @param t target correction capability in bits
     * @throws std::invalid_argument if t > kMaxT or the check width
     *         r exceeds kMaxCheckBits
     */
    BchCode(size_t data_bits, size_t t);

    size_t dataBits() const override { return k; }
    size_t checkBits() const override { return r; }
    BitVector computeCheck(const BitVector &data) const override;

    /**
     * Table-driven decode engine: odd syndromes from per-byte
     * contribution tables (even ones by Frobenius squaring),
     * inversion-free Berlekamp-Massey on fixed stack buffers, and
     * error location by closed-form solvers for locator degrees 1-4
     * (see locateErrors) with a log-domain incremental Chien sweep
     * (bounded to the shortened length n, early exit at deg(locator)
     * roots) above that. Bit-exact against the element-at-a-time
     * decoder in tests/oracles/ (per-bit Horner syndromes, polynomial
     * Berlekamp-Massey, a Chien scan of every codeword position),
     * which the differential test suite holds it to.
     */
    DecodeResult decode(const BitVector &codeword) const override;

    /** Allocation-free clean check via the fast syndrome engine (see
     *  Code::syndromeClean). */
    bool syndromeClean(const BitVector &codeword) const override;

    size_t correctCapability() const override { return tCap; }
    size_t detectCapability() const override { return tCap; }
    std::string name() const override;

    /** Generator polynomial over GF(2), bit i = coefficient of x^i. */
    const std::vector<bool> &generator() const { return gen; }

    /**
     * Weight of the heaviest check-bit equation (row of the systematic
     * H matrix): XOR-tree fan-in for the latency model.
     */
    size_t maxRowWeight() const;

    /** Total ones across all check equations: XOR gate count. */
    size_t totalRowWeight() const;

    /**
     * Largest t the table engine supports; the scheme grammar's codes
     * need t <= 8.
     */
    static constexpr size_t kMaxT = 12;

    /**
     * Widest remainder the two-word division table holds; the scheme
     * grammar's widest is r = 80 (OECNED at /w512).
     */
    static constexpr size_t kMaxCheckBits = 128;

  private:

    /**
     * Fixed length of the Berlekamp-Massey stack buffers. Locator
     * degree is bounded by 2t and the x^gap shift by another 2t, so
     * 4t + 2 covers every intermediate polynomial.
     */
    static constexpr size_t kBmLen = 4 * kMaxT + 2;

    /** Divide x^r * d(x) by g(x) over GF(2), returning the remainder. */
    BitVector polyRemainder(const BitVector &data) const;

    /**
     * Table engine: S_1..S_2t into @p synd (length 2t). Returns true
     * iff all syndromes are zero.
     */
    bool syndromesFast(const BitVector &codeword, uint32_t *synd) const;

    /**
     * Inversion-free Berlekamp-Massey: writes a (scaled) locator into
     * @p loc (length kBmLen) and returns its degree. The scaling by
     * nonzero discrepancies leaves the root set — and therefore the
     * decode outcome — identical to the classic normalization.
     */
    size_t berlekampMasseyFast(const uint32_t *synd, uint32_t *loc) const;

    /**
     * Error positions (polynomial coefficient indices, ascending) of
     * the locator's roots. Degrees 1-4 go straight to closed-form
     * solvers; higher degrees run the log-domain incremental Chien
     * sweep over p in [0, n), deflating the locator at every root
     * until the closed forms take over. False on degree/root-count
     * mismatch or any root outside the shortened length.
     */
    bool locateErrors(const uint32_t *loc, size_t deg_l,
                      std::vector<size_t> &positions) const;

    /**
     * Closed-form root solver for locator degree 1 (direct log), 2
     * (quadratic y^2+y=c table), 3 (kernel of the linearized
     * y^4+Py^2+Qy) and 4 (shift by sqrt(c/a) to kill the linear
     * term, then the reciprocal substitution reduces to the same
     * affine quartic with a nonzero right-hand side). Appends
     * coefficient positions unsorted; false if the locator cannot
     * have deg distinct in-range roots.
     */
    bool locateClosed(const uint32_t *loc, size_t deg,
                      std::vector<size_t> &positions) const;

    size_t k;
    size_t tCap;
    size_t r;
    std::shared_ptr<const GF2m> field;
    std::vector<bool> gen;
    /** Cached H-matrix row weights of the systematic check equations. */
    std::vector<size_t> rowWeights;

    /**
     * CRC-style byte-at-a-time division table: remainder evolution of
     * injecting one message byte into the LFSR, as the (high, low)
     * word pair of a 128-bit left-aligned remainder (entry b at
     * [2b, 2b + 1]).
     */
    std::vector<uint64_t> byteTable;

    /**
     * Per-byte odd-syndrome contribution tables (the Hsiao shape
     * lifted to GF(2^m)): entry [(byte_index << 8 | byte_value) * t
     * + j] is the contribution of that received byte to S_{2j+1}.
     * Even syndromes follow by squaring (S_2j = S_j^2 for binary
     * codes), so a full syndrome set costs ceil(n/8) table rows of t
     * XORs plus t squarings instead of one Horner pass per set bit.
     */
    std::vector<uint32_t> syndTable;
};

/**
 * A BCH code extended with one overall parity bit, raising detection
 * to t+1 errors (minimum distance 2t+2). This matches the paper's
 * naming: DECTED = extended t=2, QECPED = extended t=4, OECNED =
 * extended t=8.
 *
 * Layout: [data | inner BCH check | overall parity].
 */
class ExtendedBchCode : public Code
{
  public:
    ExtendedBchCode(size_t data_bits, size_t t, std::string display_name);

    size_t dataBits() const override { return inner.dataBits(); }
    size_t checkBits() const override { return inner.checkBits() + 1; }
    BitVector computeCheck(const BitVector &data) const override;
    DecodeResult decode(const BitVector &codeword) const override;
    /** Clean iff the overall parity is even and the inner BCH
     *  syndromes vanish (see Code::syndromeClean). */
    bool syndromeClean(const BitVector &codeword) const override;
    size_t correctCapability() const override
    {
        return inner.correctCapability();
    }
    size_t detectCapability() const override
    {
        return inner.correctCapability() + 1;
    }
    std::string name() const override;

    const BchCode &innerCode() const { return inner; }

  private:
    BchCode inner;
    std::string displayName;
};

} // namespace tdc

#endif // TDC_ECC_BCH_HH
