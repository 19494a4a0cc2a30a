/**
 * @file
 * Determinism contract of the threaded yield sweep: counter-based RNG
 * streams make the Monte-Carlo result a pure function of its
 * parameters, so running with 1, 2, 4 or 8 workers must reproduce the
 * serial counters bit for bit. (Injection trials are covered by
 * SchemeInjection in tests/scheme.)
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "reliability/yield_model.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

TEST(SweepDeterminism, YieldMonteCarloIdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    YieldParams params;
    params.words = 4096;
    params.wordBits = 72;
    const YieldModel model(params);
    setParallelThreads(1);
    const YieldModel::McResult serial =
        model.monteCarloParallel(64, 4, 200, 11);
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        const YieldModel::McResult threaded =
            model.monteCarloParallel(64, 4, 200, 11);
        EXPECT_EQ(threaded.spareOnly, serial.spareOnly);
        EXPECT_EQ(threaded.eccOnly, serial.eccOnly);
        EXPECT_EQ(threaded.eccPlusSpares, serial.eccPlusSpares);
    }
}

} // namespace
} // namespace tdc
