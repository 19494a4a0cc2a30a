/**
 * @file
 * Property-style tests of the 2D coding scheme:
 *  - a coverage matrix parameterized over configuration x footprint,
 *  - a differential shadow-model stress test over random operation
 *    streams, and
 *  - recovery honesty under corrupted vertical parity.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "../oracles/twod_parity.hh"

namespace tdc
{
namespace
{

/** (horizontal kind, vertical rows, cluster width, cluster height) */
using CoverageParam = std::tuple<CodeKind, size_t, size_t, size_t>;

class CoverageMatrixTest : public ::testing::TestWithParam<CoverageParam>
{
};

TEST_P(CoverageMatrixTest, FootprintWithinGuaranteeIsAlwaysCorrected)
{
    const auto [kind, vrows, width, height] = GetParam();
    TwoDimConfig cfg;
    cfg.horizontalKind = kind;
    cfg.wordBits = 64;
    cfg.interleaveDegree = 4;
    cfg.verticalParityRows = vrows;
    cfg.dataRows = 64;

    // Parameter sets are chosen within the guarantee:
    //   height <= vrows, width <= interleave * burst-detect width.
    ASSERT_LE(height, vrows);

    Rng rng(uint64_t(width) * 1315423911u + height * 2654435761u +
            vrows);
    TwoDimArray arr(cfg);
    std::vector<std::vector<BitVector>> golden(
        arr.rows(), std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            golden[r][s] = BitVector(64, rng.next());
            arr.writeWord(r, s, golden[r][s]);
        }

    FaultInjector inj(rng);
    for (int trial = 0; trial < 4; ++trial) {
        inj.inject(arr.cells(), FaultModel::cluster(width, height));
        ASSERT_TRUE(arr.scrub());
        for (size_t r = 0; r < arr.rows(); ++r)
            for (size_t s = 0; s < arr.wordsPerRow(); ++s)
                ASSERT_EQ(arr.readWord(r, s).data, golden[r][s]);
        ASSERT_TRUE(oracle::verifyParity(arr));
    }
}

INSTANTIATE_TEST_SUITE_P(
    EdcConfigs, CoverageMatrixTest,
    ::testing::Values(
        CoverageParam{CodeKind::kEdc8, 8, 1, 1},
        CoverageParam{CodeKind::kEdc8, 8, 32, 8},
        CoverageParam{CodeKind::kEdc8, 16, 32, 16},
        CoverageParam{CodeKind::kEdc8, 32, 32, 32},
        CoverageParam{CodeKind::kEdc8, 32, 17, 29},
        CoverageParam{CodeKind::kEdc16, 8, 32, 8},
        CoverageParam{CodeKind::kEdc16, 16, 64, 16},
        CoverageParam{CodeKind::kEdc32, 8, 128, 8}));

INSTANTIATE_TEST_SUITE_P(
    SecdedConfigs, CoverageMatrixTest,
    ::testing::Values(
        // SECDED horizontal: detect guarantee is 2 bits/word -> 8
        // contiguous columns at interleave 4.
        CoverageParam{CodeKind::kSecDed, 8, 8, 8},
        CoverageParam{CodeKind::kSecDed, 16, 8, 16},
        CoverageParam{CodeKind::kSecDed, 32, 8, 32},
        CoverageParam{CodeKind::kSecDed, 32, 1, 32}));

/**
 * Differential stress: a shadow std::map is the specification; the
 * 2D array must agree after an arbitrary interleaving of writes,
 * reads, in-coverage fault events and scrubs.
 */
TEST(TwoDimShadowModel, RandomOperationStreamsAgreeWithSpec)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        TwoDimConfig cfg = TwoDimConfig::l1Default();
        cfg.dataRows = 64;
        cfg.verticalParityRows = 8;
        TwoDimArray arr(cfg);
        FaultInjector inj(rng);
        std::map<std::pair<size_t, size_t>, uint64_t> shadow;

        for (int op = 0; op < 1500; ++op) {
            const double dice = rng.nextDouble();
            const size_t row = rng.nextBelow(arr.rows());
            const size_t slot = rng.nextBelow(arr.wordsPerRow());
            if (dice < 0.45) {
                const uint64_t value = rng.next();
                arr.writeWord(row, slot, BitVector(64, value));
                shadow[{row, slot}] = value;
            } else if (dice < 0.90) {
                auto it = shadow.find({row, slot});
                if (it != shadow.end()) {
                    AccessResult res = arr.readWord(row, slot);
                    ASSERT_TRUE(res.ok()) << "seed " << seed;
                    ASSERT_EQ(res.data.toUint64(), it->second)
                        << "seed " << seed << " op " << op;
                }
            } else if (dice < 0.97) {
                // In-coverage fault event.
                inj.inject(arr.cells(),
                           FaultModel::cluster(1 + rng.nextBelow(32),
                                               1 + rng.nextBelow(8)));
                ASSERT_TRUE(arr.scrub()) << "seed " << seed;
            } else {
                ASSERT_TRUE(arr.scrub());
            }
        }
        // Final sweep: every written word matches the specification.
        for (const auto &[key, value] : shadow) {
            ASSERT_EQ(arr.readWord(key.first, key.second)
                          .data.toUint64(),
                      value);
        }
        ASSERT_TRUE(oracle::verifyParity(arr));
    }
}

TEST(TwoDimHonesty, CorruptedParityRowNeverCausesSilentCorruption)
{
    // If the vertical parity itself is corrupted, a subsequent row
    // reconstruction would produce garbage — the verification step of
    // the recovery process must catch that and report failure instead
    // of writing a wrong row and declaring success.
    Rng rng(99);
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray arr(cfg);
    std::vector<std::vector<BitVector>> golden(
        arr.rows(), std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            golden[r][s] = BitVector(64, rng.next());
            arr.writeWord(r, s, golden[r][s]);
        }

    // Corrupt the parity row of group 2 heavily, then lose row 10
    // (group 2) to a burst.
    for (size_t c = 0; c < 40; ++c)
        arr.vertical().cells().flipBit(2, c * 7 % arr.cells().cols());
    FaultInjector inj(rng);
    inj.inject(arr.cells(),
               {.shape = FaultShape::kRowBurst, .width = 32, .rowLo = 10});

    const RecoveryReport report = arr.recover();
    // Either the recovery honestly fails, or — if the corrupted
    // parity happens to decode — every word it claims clean must
    // actually be clean per the horizontal code. It must never return
    // success with an inconsistent bank.
    if (report.success) {
        EXPECT_TRUE(arr.verifyClean());
    } else {
        EXPECT_GT(arr.stats().recoveryFailures, 0u);
    }
}

TEST(TwoDimHonesty, RecoveryIsIdempotent)
{
    Rng rng(100);
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray arr(cfg);
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, BitVector(64, rng.next()));
    FaultInjector inj(rng);
    inj.inject(arr.cells(), FaultModel::cluster(32, 8));
    ASSERT_TRUE(arr.recover().success);
    // A second recovery on a clean bank reconstructs nothing.
    const RecoveryReport second = arr.recover();
    EXPECT_TRUE(second.success);
    EXPECT_TRUE(second.rowsReconstructed.empty());
    EXPECT_TRUE(second.columnsRepaired.empty());
}

} // namespace
} // namespace tdc
