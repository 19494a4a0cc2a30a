#include "reliability/yield_model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"

namespace tdc
{

YieldParams
YieldParams::l2Cache16MB()
{
    YieldParams p;
    p.words = 16ull * 1024 * 1024 * 8 / 64; // 2M 64-bit data words
    p.wordBits = 72;                        // (72,64) SECDED storage
    return p;
}

double
YieldModel::expectedFaultyWords(double faults) const
{
    // Per-word fault count ~ Poisson(lambda), lambda = F / N.
    const double lambda = faults / double(p.words);
    return double(p.words) * (1.0 - std::exp(-lambda));
}

double
YieldModel::expectedMultiFaultWords(double faults) const
{
    const double lambda = faults / double(p.words);
    return double(p.words) *
           (1.0 - std::exp(-lambda) * (1.0 + lambda));
}

double
YieldModel::poissonCdf(double mean, double k)
{
    if (mean <= 0.0)
        return 1.0;
    if (mean < 60.0) {
        double term = std::exp(-mean);
        double sum = term;
        for (double i = 1.0; i <= k; ++i) {
            term *= mean / i;
            sum += term;
        }
        return std::min(1.0, sum);
    }
    // Normal approximation with continuity correction.
    const double z = (k + 0.5 - mean) / std::sqrt(mean);
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
YieldModel::yieldSpareOnly(double faults, size_t spares) const
{
    return poissonCdf(expectedFaultyWords(faults), double(spares));
}

double
YieldModel::yieldEccOnly(double faults) const
{
    return poissonCdf(expectedMultiFaultWords(faults), 0.0);
}

double
YieldModel::yieldEccPlusSpares(double faults, size_t spares) const
{
    return poissonCdf(expectedMultiFaultWords(faults), double(spares));
}

YieldModel::McResult
YieldModel::monteCarloParallel(size_t faults, size_t spares, int trials,
                               uint64_t seed) const
{
    McResult out;
    if (trials <= 0)
        return out;

    // One trial scatters O(faults) cells into a hash map, so trials
    // are chunky; shard a handful per stream. The shard size is fixed
    // (never derived from the thread count) to keep the trial ->
    // RNG-stream mapping thread-count-invariant.
    constexpr int kShardTrials = 4;
    const size_t shards = size_t((trials + kShardTrials - 1) / kShardTrials);
    struct Counts
    {
        int spareOnly = 0;
        int eccOnly = 0;
        int eccPlusSpares = 0;
    };
    std::vector<Counts> counts(shards);
    parallelFor(shards, [&](size_t s) {
        Rng rng(shardSeed(seed, s));
        const int lo = int(s) * kShardTrials;
        const int hi = std::min(trials, lo + kShardTrials);
        Counts c;
        std::unordered_map<uint64_t, unsigned> hit;
        hit.reserve(faults * 2);
        for (int t = lo; t < hi; ++t) {
            // Scatter the faulty cells; count per-word multiplicities.
            hit.clear();
            for (size_t f = 0; f < faults; ++f)
                ++hit[rng.nextBelow(p.totalBits()) / p.wordBits];
            size_t multi = 0;
            for (const auto &[word, count] : hit)
                multi += count >= 2;
            c.spareOnly += hit.size() <= spares;
            c.eccOnly += multi == 0;
            c.eccPlusSpares += multi <= spares;
        }
        counts[s] = c;
    });

    for (const Counts &c : counts) {
        out.spareOnly += c.spareOnly;
        out.eccOnly += c.eccOnly;
        out.eccPlusSpares += c.eccPlusSpares;
    }
    out.spareOnly /= trials;
    out.eccOnly /= trials;
    out.eccPlusSpares /= trials;
    return out;
}

} // namespace tdc
