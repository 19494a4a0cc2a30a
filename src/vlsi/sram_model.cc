#include "vlsi/sram_model.hh"

#include <cassert>
#include <cmath>
#include <limits>

namespace tdc
{

SramModel::SramModel(size_t words, size_t codeword_bits, size_t interleave,
                     const TechParams &tech_)
    : numWords(words), cwBits(codeword_bits), intv(interleave), tech(tech_)
{
    assert(numWords > 0 && cwBits > 0 && intv > 0);
    assert(numWords % intv == 0 && "words must fill whole rows");
}

size_t
SramModel::totalRows() const
{
    return numWords / intv;
}

std::vector<SramOrg>
SramModel::candidates() const
{
    std::vector<SramOrg> out;
    const size_t rows = totalRows();
    for (size_t sub_rows = 16; sub_rows <= 2048; sub_rows *= 2) {
        if (sub_rows > rows)
            break;
        for (size_t seg = 1; seg <= 8; seg *= 2) {
            if (seg >= sub_rows)
                break;
            SramOrg org;
            org.subarrayRows = sub_rows;
            org.segmentation = seg;
            org.subarrayCols = rowBits();
            org.numSubarrays = (rows + sub_rows - 1) / sub_rows;
            out.push_back(org);
        }
    }
    assert(!out.empty());
    return out;
}

SramMetrics
SramModel::evaluate(const SramOrg &org) const
{
    SramMetrics m;
    m.org = org;

    const double cols = double(org.subarrayCols);
    const double seg_rows = double(org.subarrayRows) / double(org.segmentation);
    const double total_bits =
        double(org.numSubarrays) * double(org.subarrayRows) * cols;
    const double addr_bits = std::log2(double(totalRows()));
    const double mux_levels =
        intv > 1 ? std::log2(double(intv)) : 0.0;

    // --- Delay: decode -> wordline -> bitline -> sense -> mux ->
    //     global route. Only one subarray activates per access.
    m.delay = tech.decodeBase + tech.decodePerBit * addr_bits +
              tech.wordlinePerCol * cols +
              tech.bitlinePerRow * seg_rows + tech.senseAmp +
              tech.muxPerLevel * mux_levels +
              tech.routePerSqrtBit * std::sqrt(total_bits) +
              tech.routePerSubarrayLevel *
                  std::log2(double(org.numSubarrays) + 1.0);

    // --- Energy per read. The dominant term is the bitline partial
    //     swing of *every* column in the activated subarray (this is
    //     the pseudo-read cost that makes deep interleaving
    //     expensive, Section 2.2). Sensing is also per-column;
    //     output drive is per selected codeword bit only.
    m.readEnergy = tech.eDecodePerBit * addr_bits +
                   tech.eWordlinePerCol * cols +
                   tech.eBitlinePerColRow * cols * seg_rows +
                   tech.eSenseAmpPerCol * cols +
                   tech.ePerOutputBit * double(cwBits) +
                   tech.eRoutePerSqrtBit * std::sqrt(total_bits) +
                   tech.ePerSubarray * double(org.numSubarrays);

    // --- Area: cells + per-segment sense-amp strips + decoders +
    //     global wiring overhead.
    const double cell_area = tech.cellArea * total_bits;
    const double sa_area = tech.senseAmpAreaPerCol * cols *
                           double(org.segmentation) *
                           double(org.numSubarrays);
    const double dec_area = tech.decodeAreaPerRow *
                            double(org.subarrayRows) *
                            double(org.numSubarrays);
    m.area = (cell_area + sa_area + dec_area) *
             (1.0 + tech.areaWireOverhead);
    return m;
}

SramMetrics
SramModel::optimize(SramObjective objective) const
{
    const std::vector<SramOrg> cands = candidates();
    std::vector<SramMetrics> metrics;
    metrics.reserve(cands.size());
    double min_delay = std::numeric_limits<double>::max();
    double min_energy = min_delay, min_area = min_delay;
    for (const SramOrg &org : cands) {
        metrics.push_back(evaluate(org));
        min_delay = std::min(min_delay, metrics.back().delay);
        min_energy = std::min(min_energy, metrics.back().readEnergy);
        min_area = std::min(min_area, metrics.back().area);
    }

    // Weighted sum of metrics normalized to the per-metric optimum,
    // the standard Cacti objective formulation.
    auto score = [&](const SramMetrics &m) {
        const double nd = m.delay / min_delay;
        const double ne = m.readEnergy / min_energy;
        const double na = m.area / min_area;
        switch (objective) {
          case SramObjective::kDelay: return nd;
          case SramObjective::kPower: return ne;
          case SramObjective::kDelayArea: return nd + 0.5 * na;
          case SramObjective::kBalanced: return nd + ne + 0.5 * na;
        }
        return nd;
    };

    size_t best = 0;
    for (size_t i = 1; i < metrics.size(); ++i) {
        if (score(metrics[i]) < score(metrics[best]))
            best = i;
    }
    return metrics[best];
}

SramMetrics
cacheArrayMetrics(size_t capacity_bytes, size_t data_bits,
                  size_t check_bits, size_t interleave, size_t banks,
                  SramObjective objective, const TechParams &tech)
{
    assert(capacity_bytes * 8 % (data_bits * banks) == 0);
    const size_t words_per_bank = capacity_bytes * 8 / data_bits / banks;
    SramModel model(words_per_bank, data_bits + check_bits, interleave,
                    tech);
    SramMetrics m = model.optimize(objective);
    // Area scales with bank count; delay and per-access energy are
    // those of the single activated bank.
    m.area *= double(banks);
    return m;
}

} // namespace tdc
