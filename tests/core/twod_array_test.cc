#include <gtest/gtest.h>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"

namespace tdc
{
namespace
{

/** Fill every word and keep golden copies. */
std::vector<std::vector<BitVector>>
fill(TwoDimArray &arr, Rng &rng)
{
    std::vector<std::vector<BitVector>> golden(
        arr.rows(), std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            BitVector data(arr.dataBits());
            for (size_t b = 0; b < data.size(); ++b)
                data.set(b, rng.nextBool());
            arr.writeWord(r, s, data);
            golden[r][s] = data;
        }
    }
    return golden;
}

/** Verify every word reads back equal to its golden copy. */
void
expectAllGolden(TwoDimArray &arr,
                const std::vector<std::vector<BitVector>> &golden)
{
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            AccessResult res = arr.readWord(r, s);
            ASSERT_TRUE(res.ok()) << "row " << r << " slot " << s;
            ASSERT_EQ(res.data, golden[r][s])
                << "row " << r << " slot " << s;
        }
    }
}

/** A small L1-flavoured config to keep exhaustive tests fast. */
TwoDimConfig
smallConfig()
{
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    return cfg;
}

TEST(TwoDimArray, GeometryAndOverheadMatchFigure3c)
{
    // Figure 3(c): EDC8+Intv4 horizontal (12.5%) + 32 parity rows per
    // 256 data rows (12.5%) = 25% total.
    TwoDimArray arr(TwoDimConfig::l1Default());
    EXPECT_EQ(arr.rows(), 256u);
    EXPECT_EQ(arr.wordsPerRow(), 4u);
    EXPECT_DOUBLE_EQ(arr.storageOverhead(), 0.25);
    EXPECT_EQ(arr.config().clusterWidthCoverage(), 32u);
    EXPECT_EQ(arr.config().clusterHeightCoverage(), 32u);
}

TEST(TwoDimArray, CleanRoundTripAndParityInvariant)
{
    Rng rng(110);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    EXPECT_TRUE(arr.verifyParity());
    EXPECT_TRUE(arr.verifyClean());
    expectAllGolden(arr, golden);
    // Overwrites keep the parity consistent.
    for (int step = 0; step < 200; ++step) {
        const size_t r = rng.nextBelow(arr.rows());
        const size_t s = rng.nextBelow(arr.wordsPerRow());
        BitVector data(arr.dataBits(), rng.next());
        arr.writeWord(r, s, data);
        golden[r][s] = data;
    }
    EXPECT_TRUE(arr.verifyParity());
    expectAllGolden(arr, golden);
}

TEST(TwoDimArray, EveryWriteIsReadBeforeWrite)
{
    TwoDimArray arr(smallConfig());
    arr.resetStats();
    BitVector data(arr.dataBits(), 42);
    for (int i = 0; i < 10; ++i)
        arr.writeWord(0, 0, data);
    EXPECT_EQ(arr.stats().writes, 10u);
    EXPECT_EQ(arr.stats().readBeforeWrites, 10u);
}

TEST(TwoDimArray, RecoversSingleRowBurst)
{
    // A 32-bit burst in one row: horizontal EDC8+Intv4 detects it,
    // the vertical group reconstructs the row.
    Rng rng(111);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectRowBurst(arr.cells(), 13, 32);

    expectAllGolden(arr, golden); // readWord triggers recovery
    EXPECT_TRUE(arr.verifyClean());
    EXPECT_EQ(arr.stats().recoveries, 1u);
    EXPECT_EQ(arr.stats().recoveryFailures, 0u);
    EXPECT_FALSE(arr.lastRecovery().usedColumnPath);
}

TEST(TwoDimArray, RecoversFullRowFailure)
{
    Rng rng(112);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectFullRow(arr.cells(), 29);
    expectAllGolden(arr, golden);
    EXPECT_TRUE(arr.verifyClean());
}

/** Cluster sweep: every (width, height) up to the coverage bound must
 *  be corrected. Parameterized over footprint sizes. */
class ClusterCoverageTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(ClusterCoverageTest, ClusterWithinCoverageIsCorrected)
{
    const auto [width, height] = GetParam();
    Rng rng(113 + width * 64 + height);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);

    for (int trial = 0; trial < 5; ++trial) {
        inj.injectCluster(arr.cells(), width, height, 1.0);
        const bool ok = arr.scrub();
        ASSERT_TRUE(ok) << width << "x" << height;
        expectAllGolden(arr, golden);
        ASSERT_TRUE(arr.verifyParity());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Footprints, ClusterCoverageTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{2, 8},
                      std::pair<size_t, size_t>{8, 2},
                      std::pair<size_t, size_t>{8, 8},
                      std::pair<size_t, size_t>{16, 4},
                      std::pair<size_t, size_t>{32, 8},
                      std::pair<size_t, size_t>{32, 1},
                      std::pair<size_t, size_t>{1, 8}));

TEST(ClusterCoverage, SparseClustersAlsoCorrected)
{
    Rng rng(114);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    for (int trial = 0; trial < 10; ++trial) {
        inj.injectCluster(arr.cells(), 32, 8, 0.5);
        ASSERT_TRUE(arr.scrub());
        expectAllGolden(arr, golden);
    }
}

TEST(TwoDimArray, FullConfigCorrects32x32Cluster)
{
    // The headline claim: the paper's L1 configuration corrects
    // clustered errors up to 32x32 bits.
    Rng rng(115);
    TwoDimArray arr(TwoDimConfig::l1Default());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectCluster(arr.cells(), 32, 32, 1.0);
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
    EXPECT_TRUE(arr.verifyParity());
}

TEST(TwoDimArray, ClusterTallerThanVButNarrowRecoversViaColumns)
{
    // Taller than the vertical interleave factor: row groups have
    // multiple faulty rows, so the column-location path must engage.
    // Narrow errors (single column) are locatable.
    Rng rng(116);
    TwoDimConfig cfg = smallConfig(); // V = 8
    TwoDimArray arr(cfg);
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectColumnBurst(arr.cells(), 17, 20); // 20 rows > V=8
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
    EXPECT_TRUE(arr.lastRecovery().usedColumnPath);
}

TEST(TwoDimArray, ClusterExceedingBothDimensionsFailsHonestly)
{
    // The paper: "This example scheme does not correct multi-bit
    // errors that span over 32 lines in both horizontal and vertical
    // directions." With V=8 and width coverage 32, a detectable
    // 16-wide x 16-tall solid cluster defeats both paths: every
    // parity group holds two faulty rows (row path fails) and the
    // two rows per group flip the same columns, so their vertical
    // mismatch cancels (column path finds no suspects). Recovery must
    // report failure, not silently corrupt.
    Rng rng(117);
    TwoDimArray arr(smallConfig());
    fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectCluster(arr.cells(), 16, 16, 1.0, 0, 0);
    const bool ok = arr.scrub();
    EXPECT_FALSE(ok);
    EXPECT_GT(arr.stats().recoveryFailures, 0u);
}

TEST(TwoDimArray, WideEvenClusterIsSilentlyUndetectable)
{
    // Coverage boundary in the *detection* dimension: a solid burst
    // of width 2 * classCount * degree flips every EDC parity class
    // an even number of times, so the horizontal code sees nothing.
    // This is exactly why the paper sizes the horizontal dimension to
    // the largest expected footprint: beyond it, corruption is
    // silent (not a recovery failure).
    Rng rng(130);
    TwoDimArray arr(smallConfig()); // EDC8 + Intv4: detect width 32
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectRowBurst(arr.cells(), 9, 64, 0);

    EXPECT_TRUE(arr.scrub()); // nothing detected
    bool mismatch = false;
    for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
        AccessResult res = arr.readWord(9, s);
        EXPECT_EQ(res.status, DecodeStatus::kClean);
        mismatch |= res.data != golden[9][s];
    }
    EXPECT_TRUE(mismatch) << "corruption should have slipped through";
}

TEST(TwoDimArray, SecdedHorizontalCorrectsSingleBitInline)
{
    // Section 5.2 configuration: SECDED horizontal fixes single-bit
    // errors without entering recovery.
    Rng rng(118);
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kSecDed;
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray arr(cfg);
    auto golden = fill(arr, rng);
    arr.cells().flipBit(10, 100);
    expectAllGolden(arr, golden);
    EXPECT_EQ(arr.stats().recoveries, 0u);
    EXPECT_GE(arr.stats().inlineCorrections, 1u);
    EXPECT_TRUE(arr.verifyParity()); // inline fix maintained parity
}

TEST(TwoDimArray, SecdedHorizontalStuckCellKeepsMultiBitProtection)
{
    // The yield argument: a manufacture-time stuck-at bit is corrected
    // in-line by SECDED, and the vertical code still recovers a later
    // multi-bit soft error in the same bank.
    Rng rng(119);
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kSecDed;
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray arr(cfg);
    auto golden = fill(arr, rng);

    // Hard fault somewhere in row 5.
    arr.cells().addStuckAt(5, 7, !arr.cells().readBit(5, 7));
    expectAllGolden(arr, golden);

    // Later, a multi-bit soft error hits a different row. SECDED with
    // 4-way interleaving guarantees *detection* of bursts up to 8
    // bits (2 per word), which the vertical dimension then repairs.
    FaultInjector inj(rng);
    inj.injectRowBurst(arr.cells(), 40, 8);
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
}

TEST(TwoDimArray, RecoveryLatencyIsProportionalToBankRows)
{
    // The paper likens recovery to a BIST march: row reads should be
    // O(rows), not O(rows^2).
    Rng rng(120);
    TwoDimArray arr(smallConfig());
    fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectRowBurst(arr.cells(), 20, 32);
    const RecoveryReport rep = arr.recover();
    ASSERT_TRUE(rep.success);
    EXPECT_LE(rep.rowReads, 3 * arr.rows());
}

TEST(TwoDimArray, ErrorInParityRowDoesNotCorruptData)
{
    // Faults in the vertical code itself: data reads stay clean.
    Rng rng(121);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    arr.vertical().cells().flipBit(3, 50);
    EXPECT_FALSE(arr.verifyParity());
    expectAllGolden(arr, golden);
}

TEST(TwoDimArray, ReadsDoNotDisturbParity)
{
    Rng rng(122);
    TwoDimArray arr(smallConfig());
    fill(arr, rng);
    for (int i = 0; i < 100; ++i)
        arr.readWord(rng.nextBelow(arr.rows()),
                     rng.nextBelow(arr.wordsPerRow()));
    EXPECT_TRUE(arr.verifyParity());
}

TEST(TwoDimArray, L2ConfigurationAlsoCovers32x32)
{
    // EDC16+Intv2 over 256-bit words: same 32x32 coverage with less
    // interleaving power cost (the paper's L2 design point).
    Rng rng(123);
    TwoDimConfig cfg = TwoDimConfig::l2Default();
    cfg.dataRows = 64; // keep the test fast
    TwoDimArray arr(cfg);
    EXPECT_EQ(cfg.clusterWidthCoverage(), 32u);
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.injectCluster(arr.cells(), 32, 16, 1.0);
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
}

} // namespace
} // namespace tdc
