/**
 * @file
 * In-the-field reliability model: the interaction between
 * manufacture-time hard errors repaired by ECC and later soft errors
 * (Figure 8(b) of the paper).
 */

#ifndef TDC_RELIABILITY_SOFT_ERROR_MODEL_HH
#define TDC_RELIABILITY_SOFT_ERROR_MODEL_HH

#include <cstddef>

namespace tdc
{

/** System and environment parameters of the Figure 8(b) study. */
struct ReliabilityParams
{
    /** Number of caches in the system. */
    size_t numCaches = 10;
    /** Megabits of data per cache (16MB = 128 Mb). */
    double mbitPerCache = 16.0 * 8.0;
    /** Soft-error rate in FIT per Mbit (paper: 1000 FIT/Mb). */
    double fitPerMbit = 1000.0;
    /** Fraction of bits with a manufacture-time hard fault (HER). */
    double hardErrorRate = 0.00001;
    /** Bits per protected word including check bits. */
    size_t wordBits = 72;

    static ReliabilityParams figure8b(double her);

    /** Total data megabits. */
    double totalMbit() const { return double(numCaches) * mbitPerCache; }

    /** Expected soft errors per hour across the system. */
    double softErrorsPerHour() const
    {
        // FIT = failures per 1e9 device-hours.
        return totalMbit() * fitPerMbit / 1e9;
    }
};

/**
 * Probability model for "ECC corrects hard errors" deployments.
 *
 * When SECDED ECC is used to map out single-bit hard faults, any word
 * carrying such a fault has spent its correction budget: one later
 * soft error in the same word becomes an uncorrectable double error.
 * Without a multi-bit correction layer, system reliability therefore
 * decays with operating time. With 2D coding the vertical dimension
 * still recovers those words, so the success probability stays at
 * 1.0 (the paper's "With 2D coding" line).
 */
class SoftErrorModel
{
  public:
    explicit SoftErrorModel(const ReliabilityParams &params) : p(params) {}

    const ReliabilityParams &params() const { return p; }

    /** Fraction of words that contain at least one hard-faulty bit. */
    double faultyWordFraction() const;

    /** Expected number of soft errors in @p years of operation. */
    double expectedSoftErrors(double years) const;

    /**
     * Probability that every soft error in @p years lands in a word
     * without a pre-existing hard fault (i.e. remains correctable by
     * the horizontal SECDED alone).
     */
    double successProbability(double years) const;

    /** Same quantity with 2D coding: always 1 (vertical recovery). */
    double successProbabilityWith2D(double /*years*/) const { return 1.0; }

  private:
    ReliabilityParams p;
};

} // namespace tdc

#endif // TDC_RELIABILITY_SOFT_ERROR_MODEL_HH
