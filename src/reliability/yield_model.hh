/**
 * @file
 * Stapper-style memory yield model (Figure 8(a) of the paper).
 *
 * Hard faults are assumed uniformly distributed over the cell array
 * (the model of Stapper & Lee the paper cites). A data word is
 * repairable by ECC iff it contains at most one faulty bit; words
 * with multi-bit faults must be remapped to spare rows. The memory
 * yields iff the number of unrepairable words does not exceed the
 * spare budget.
 */

#ifndef TDC_RELIABILITY_YIELD_MODEL_HH
#define TDC_RELIABILITY_YIELD_MODEL_HH

#include <cstddef>
#include <cstdint>

namespace tdc
{

/** Geometry of the memory whose yield is being estimated. */
struct YieldParams
{
    /** Number of protected data words (16MB / 64b = 2M words). */
    size_t words = 2 * 1024 * 1024;
    /** Bits per stored word including check bits ((72,64) SECDED). */
    size_t wordBits = 72;

    /** The paper's 16MB L2 with (72,64) SECDED words. */
    static YieldParams l2Cache16MB();

    size_t totalBits() const { return words * wordBits; }
};

/**
 * Analytic yield estimates. With F faults scattered over N words of
 * w bits, the per-word fault count is approximately Poisson with
 * lambda = F/N; the number of words with >= k faults is itself
 * approximately Poisson, which gives closed-form yields.
 */
class YieldModel
{
  public:
    explicit YieldModel(const YieldParams &params) : p(params) {}

    /** Expected number of words containing >= 1 faulty bit. */
    double expectedFaultyWords(double faults) const;

    /** Expected number of words containing >= 2 faulty bits. */
    double expectedMultiFaultWords(double faults) const;

    /**
     * Yield with spare rows only (no ECC): every word with any fault
     * consumes a spare; the chip is good iff faulty words <= spares.
     */
    double yieldSpareOnly(double faults, size_t spares) const;

    /**
     * Yield with in-line ECC only (no spares): single-bit faults are
     * corrected for free, but any word with a multi-bit fault kills
     * the chip.
     */
    double yieldEccOnly(double faults) const;

    /**
     * Yield with ECC + spare rows: ECC absorbs single-bit-fault
     * words, spares absorb the (few) multi-bit-fault words. This is
     * the synergistic configuration Figure 8(a) shows dominating.
     */
    double yieldEccPlusSpares(double faults, size_t spares) const;

    /**
     * Monte-Carlo cross-check: scatter @p faults faulty cells
     * uniformly, count multi-fault and any-fault words, and report
     * the fraction of @p trials that yield under each policy. Trials
     * run in fixed-size shards with per-shard counter-based RNG
     * streams (shardSeed(seed, shard)), reduced in shard order — the
     * result is bit-identical at any thread count.
     */
    struct McResult
    {
        double spareOnly = 0.0;
        double eccOnly = 0.0;
        double eccPlusSpares = 0.0;
    };
    McResult monteCarloParallel(size_t faults, size_t spares, int trials,
                                uint64_t seed) const;

  private:
    /** P(Poisson(mean) <= k) with a normal tail for large means. */
    static double poissonCdf(double mean, double k);

    YieldParams p;
};

} // namespace tdc

#endif // TDC_RELIABILITY_YIELD_MODEL_HH
