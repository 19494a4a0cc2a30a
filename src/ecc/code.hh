/**
 * @file
 * Abstract interface for block error-detecting / error-correcting codes.
 *
 * Every protection scheme in the repository (interleaved parity EDCn,
 * single parity being EDC1, Hsiao SECDED, BCH DECTED/QECPED/OECNED)
 * implements this
 * interface, so the array, cache and 2D-coding layers are agnostic to
 * the concrete code in each dimension.
 */

#ifndef TDC_ECC_CODE_HH
#define TDC_ECC_CODE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.hh"

namespace tdc
{

/** Outcome of decoding one (possibly corrupted) codeword. */
enum class DecodeStatus
{
    /** Syndrome clean: no error observed. */
    kClean,
    /** Error(s) observed and corrected; data is repaired. */
    kCorrected,
    /** Error observed but beyond correction capability. */
    kDetectedUncorrectable,
};

/** Result of Code::decode. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::kClean;

    /**
     * The decoded data bits. Valid for kClean and kCorrected; for
     * kDetectedUncorrectable it holds the raw (uncorrected) data bits.
     */
    BitVector data;

    /**
     * Codeword bit positions the decoder flipped (empty unless
     * status == kCorrected). Positions use the codeword layout
     * [data | check].
     */
    std::vector<size_t> correctedPositions;

    bool clean() const { return status == DecodeStatus::kClean; }
    bool corrected() const { return status == DecodeStatus::kCorrected; }
    bool uncorrectable() const
    {
        return status == DecodeStatus::kDetectedUncorrectable;
    }
};

/**
 * A systematic block code over k data bits with r check bits.
 *
 * Codeword layout is always [data bits 0..k-1 | check bits 0..r-1].
 */
class Code
{
  public:
    virtual ~Code() = default;

    /** Number of data bits (k). */
    virtual size_t dataBits() const = 0;

    /** Number of check bits (r). */
    virtual size_t checkBits() const = 0;

    /** Codeword length (n = k + r). */
    size_t codewordBits() const { return dataBits() + checkBits(); }

    /** Storage overhead r/k. */
    double storageOverhead() const
    {
        return double(checkBits()) / double(dataBits());
    }

    /** Compute the r check bits for @p data. @pre data.size() == k */
    virtual BitVector computeCheck(const BitVector &data) const = 0;

    /** Encode @p data into a full [data|check] codeword. */
    BitVector encode(const BitVector &data) const;

    /**
     * Decode a full [data|check] codeword, correcting up to
     * correctCapability() bit errors.
     */
    virtual DecodeResult decode(const BitVector &codeword) const = 0;

    /**
     * True iff the codeword's syndrome is zero (it would decode
     * kClean). Semantically identical to decode(cw).clean(), but an
     * allocation-free syndrome-only check, which the batched
     * whole-line codec (core/line_codec.hh) leans on for scrub and
     * recovery sweeps where almost every word is clean.
     */
    virtual bool syndromeClean(const BitVector &codeword) const = 0;

    /**
     * Number of arbitrary-position bit errors the code is guaranteed
     * to correct (t). 0 for detection-only codes.
     */
    virtual size_t correctCapability() const = 0;

    /**
     * Number of arbitrary-position bit errors guaranteed to be at
     * least detected (d >= t). For EDCn this counts a *contiguous*
     * burst, see burstDetectCapability().
     */
    virtual size_t detectCapability() const = 0;

    /**
     * Longest contiguous burst (within one codeword) guaranteed to be
     * detected. Defaults to detectCapability().
     */
    virtual size_t burstDetectCapability() const { return detectCapability(); }

    /** Minimum Hamming distance implied by (t, d): d_min >= t+d+1. */
    size_t minDistance() const
    {
        return correctCapability() + detectCapability() + 1;
    }

    /** Human-readable name, e.g. "(72,64) SECDED". */
    virtual std::string name() const = 0;
};

/** Owning handle used across the library. */
using CodePtr = std::shared_ptr<const Code>;

} // namespace tdc

#endif // TDC_ECC_CODE_HH
