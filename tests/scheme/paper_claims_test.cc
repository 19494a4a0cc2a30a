/**
 * @file
 * The paper's coverage claims as exact tests, not sampled ones: on a
 * 64-row bank, the fault is placed at every anchor its footprint fits
 * at, each time in a fresh session, and every scrub must reach the
 * claimed verdict.
 *  - 2D coding with an EDC8 horizontal code, 4-way interleave and 32
 *    vertical parity rows corrects a solid 32x32 cluster anywhere;
 *  - with a SECDED horizontal code it corrects a failed column;
 *  - conventional SECDED with 4-way interleave never corrects a 32x32
 *    cluster (each word sees 8 flipped bits);
 *  - but it does correct a failed column, because each word sees one
 *    flipped bit.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

using Verdict = DeviceSession::Verdict;

/** Verdict counts (indexed by Verdict) over every anchor of @p fault. */
struct AnchorSweep
{
    size_t anchors = 0;
    std::array<size_t, 3> verdicts{};

    size_t count(Verdict v) const { return verdicts[size_t(v)]; }
};

/**
 * Inject @p fault once at every (rowLo, colLo) where its footprint
 * fits on the bank of @p spec, each in a fresh session, and classify
 * each scrub. A full-column fault reads only colLo, so its sweep runs
 * over the columns alone.
 */
AnchorSweep
sweepEveryAnchor(const std::string &spec, FaultModel fault)
{
    const SchemePtr scheme = parseScheme(spec);
    Rng probe(1);
    const std::unique_ptr<DeviceSession> shape = scheme->openSession(probe);
    const size_t rows = shape->cells().rows();
    const size_t cols = shape->cells().cols();
    const bool fullColumn = fault.shape == FaultShape::kFullColumn;
    const size_t rowAnchors = fullColumn ? 1 : rows - fault.height + 1;
    const size_t colAnchors = cols - fault.width + 1;

    AnchorSweep sweep;
    for (size_t r = 0; r < rowAnchors; ++r) {
        for (size_t c = 0; c < colAnchors; ++c) {
            fault.rowLo = long(r);
            fault.colLo = long(c);
            Rng rng(shardSeed(7, sweep.anchors));
            const std::unique_ptr<DeviceSession> session =
                scheme->openSession(rng);
            session->inject(fault, rng);
            ++sweep.verdicts[size_t(session->scrubAndVerify())];
            ++sweep.anchors;
        }
    }
    return sweep;
}

TEST(PaperClaims, TwoDimEdc8CorrectsA32x32ClusterAtEveryAnchor)
{
    const AnchorSweep s = sweepEveryAnchor("2d:edc8/i4+vp32/r64",
                                           FaultModel::cluster(32, 32));
    // 64 - 32 + 1 row anchors x 4 * 72 - 32 + 1 column anchors.
    EXPECT_EQ(s.anchors, 33u * 257u);
    EXPECT_EQ(s.count(Verdict::kCorrected), s.anchors);
}

TEST(PaperClaims, TwoDimSecdedCorrectsAFullColumnAtEveryColumn)
{
    const AnchorSweep s = sweepEveryAnchor("2d:secded/i4+vp32/r64",
                                           FaultModel::fullColumn());
    EXPECT_EQ(s.anchors, 4u * 72u);
    EXPECT_EQ(s.count(Verdict::kCorrected), s.anchors);
}

TEST(PaperClaims, ConventionalSecdedNeverCorrectsA32x32Cluster)
{
    const AnchorSweep s = sweepEveryAnchor("conv:secded/i4/r64",
                                           FaultModel::cluster(32, 32));
    EXPECT_EQ(s.anchors, 33u * 257u);
    EXPECT_EQ(s.count(Verdict::kCorrected), 0u);
}

TEST(PaperClaims, ConventionalSecdedCorrectsAFullColumnAtEveryColumn)
{
    const AnchorSweep s = sweepEveryAnchor("conv:secded/i4/r64",
                                           FaultModel::fullColumn());
    EXPECT_EQ(s.anchors, 4u * 72u);
    EXPECT_EQ(s.count(Verdict::kCorrected), s.anchors);
}

} // namespace
} // namespace tdc
