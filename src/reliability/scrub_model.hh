/**
 * @file
 * Scrubbing coverage model (paper Section 2.1: periodic scrubbing
 * "has lower error coverage than checking ECC on every read",
 * citing Saleh/Serrano/Patel).
 */

#ifndef TDC_RELIABILITY_SCRUB_MODEL_HH
#define TDC_RELIABILITY_SCRUB_MODEL_HH

#include <cstddef>

namespace tdc
{

/** Parameters of the scrubbing study. */
struct ScrubParams
{
    /** Protected words in the memory. */
    size_t words = 2 * 1024 * 1024;
    /** Single-bit soft-error rate for the whole memory, per hour. */
    double errorsPerHour = 1.28e-3;
    /** Scrub interval in hours (0 = check on every read, i.e. the
     *  interval is effectively the mean access gap, ~0). */
    double scrubIntervalHours = 24.0;

    /** Per-word upset rate per hour. */
    double perWordRate() const
    {
        return errorsPerHour / double(words);
    }
};

/**
 * With SECDED per word, data is lost when a second upset lands in a
 * word that already holds an unscrubbed first upset. Between scrubs
 * of interval T, the per-word double-upset probability is
 * ~ (rT)^2/2 (two Poisson arrivals in the window); across N words and
 * a mission time M, the expected number of uncorrectable events is
 * N * (M/T) * (rT)^2 / 2 = N * M * r^2 * T / 2 — linear in the scrub
 * interval, which is the paper's point: frequent checking (T -> 0,
 * the per-read check) suppresses the vulnerability window entirely.
 */
class ScrubModel
{
  public:
    explicit ScrubModel(const ScrubParams &params) : p(params) {}

    const ScrubParams &params() const { return p; }

    /** P(a given word accumulates >= 2 upsets within one interval). */
    double doubleUpsetProbPerWordPerInterval() const;

    /** Expected uncorrectable (double-upset) events in @p hours. */
    double expectedUncorrectable(double mission_hours) const;

    /** P(no uncorrectable event over @p hours). */
    double survivalProbability(double mission_hours) const;

  private:
    ScrubParams p;
};

} // namespace tdc

#endif // TDC_RELIABILITY_SCRUB_MODEL_HH
