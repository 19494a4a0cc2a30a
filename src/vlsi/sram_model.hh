/**
 * @file
 * Analytical SRAM array model with organization exploration — the
 * repository's stand-in for Cacti 4.0 (see DESIGN.md substitutions).
 */

#ifndef TDC_VLSI_SRAM_MODEL_HH
#define TDC_VLSI_SRAM_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "vlsi/tech.hh"

namespace tdc
{

/** Objective functions Cacti optimizes for (Section 2.2). */
enum class SramObjective
{
    kDelay,          ///< delay-only optimal
    kPower,          ///< power-only optimal
    kDelayArea,      ///< delay+area optimal
    kBalanced,       ///< power+delay+area balanced
};

/** One candidate physical organization of the array. */
struct SramOrg
{
    size_t subarrayRows = 0; ///< rows per subarray (bitline height)
    size_t segmentation = 1; ///< bitline segments per subarray
    size_t numSubarrays = 0;
    size_t subarrayCols = 0; ///< columns per subarray (wordline width)
};

/** Metrics of one organization, in normalized units. */
struct SramMetrics
{
    double delay = 0.0;        ///< access time
    double readEnergy = 0.0;   ///< dynamic energy per read access
    double area = 0.0;         ///< silicon area
    SramOrg org;
};

/**
 * Model of one SRAM bank storing `words` codewords of `codewordBits`
 * bits, physically interleaved `interleave` ways (so each physical
 * row holds `interleave` codewords and an access column-muxes one of
 * them out).
 *
 * explore() enumerates subarray heights and bitline segmentation
 * factors; optimize() picks the best organization under an objective,
 * mirroring how the paper lets Cacti re-optimize each design point as
 * the interleave degree changes.
 */
class SramModel
{
  public:
    SramModel(size_t words, size_t codeword_bits, size_t interleave,
              const TechParams &tech = defaultTech());

    size_t words() const { return numWords; }
    size_t codewordBits() const { return cwBits; }
    size_t interleave() const { return intv; }
    size_t totalRows() const;
    size_t rowBits() const { return cwBits * intv; }

    /** Metrics of one explicit organization. */
    SramMetrics evaluate(const SramOrg &org) const;

    /** All legal candidate organizations. */
    std::vector<SramOrg> candidates() const;

    /** Best organization under @p objective. */
    SramMetrics optimize(SramObjective objective) const;

  private:
    size_t numWords;
    size_t cwBits;
    size_t intv;
    TechParams tech;
};

/**
 * Convenience: energy per read of a cache data array of
 * @p capacity_bytes data bytes, @p data_bits wide words carrying
 * @p check_bits extra code bits, @p interleave-way interleaved,
 * divided into @p banks independently accessed banks (only one bank
 * activates per access), optimized for @p objective.
 */
SramMetrics cacheArrayMetrics(size_t capacity_bytes, size_t data_bits,
                              size_t check_bits, size_t interleave,
                              size_t banks, SramObjective objective,
                              const TechParams &tech = defaultTech());

} // namespace tdc

#endif // TDC_VLSI_SRAM_MODEL_HH
