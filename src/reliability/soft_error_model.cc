#include "reliability/soft_error_model.hh"

#include <cmath>

namespace tdc
{

ReliabilityParams
ReliabilityParams::figure8b(double her)
{
    ReliabilityParams p;
    p.numCaches = 10;
    p.mbitPerCache = 16.0 * 8.0;
    p.fitPerMbit = 1000.0;
    p.hardErrorRate = her;
    p.wordBits = 72;
    return p;
}

double
SoftErrorModel::faultyWordFraction() const
{
    // Each of the wordBits cells is hard-faulty independently with
    // probability HER.
    return 1.0 - std::pow(1.0 - p.hardErrorRate, double(p.wordBits));
}

double
SoftErrorModel::expectedSoftErrors(double years) const
{
    return p.softErrorsPerHour() * years * 24.0 * 365.0;
}

double
SoftErrorModel::successProbability(double years) const
{
    // Soft errors arrive as a Poisson process with rate r; each lands
    // in a hard-faulty word with probability q. Thinning: fatal
    // events are Poisson with rate r*q, so
    // P(no fatal event in t) = exp(-r * t * q).
    const double q = faultyWordFraction();
    return std::exp(-expectedSoftErrors(years) * q);
}

} // namespace tdc
