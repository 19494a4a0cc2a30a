#include "reliability/scrub_model.hh"

#include <cmath>

namespace tdc
{

double
ScrubModel::doubleUpsetProbPerWordPerInterval() const
{
    // Poisson arrivals at rate r over window T: P(>=2) =
    // 1 - e^{-rT}(1 + rT). Computed via expm1 so the second-order
    // term survives for the tiny per-word rates of real memories
    // (rT ~ 1e-8 would cancel to zero in the naive form).
    const double rt = p.perWordRate() * p.scrubIntervalHours;
    return -std::expm1(-rt) - rt * std::exp(-rt);
}

double
ScrubModel::expectedUncorrectable(double mission_hours) const
{
    if (p.scrubIntervalHours <= 0.0)
        return 0.0; // per-read checking: no accumulation window
    const double intervals = mission_hours / p.scrubIntervalHours;
    return double(p.words) * intervals *
           doubleUpsetProbPerWordPerInterval();
}

double
ScrubModel::survivalProbability(double mission_hours) const
{
    return std::exp(-expectedUncorrectable(mission_hours));
}

} // namespace tdc
