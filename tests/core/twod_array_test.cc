#include <gtest/gtest.h>

#include <cctype>
#include <functional>

#include "array/fault.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "scheme/scheme.hh"
#include "word_trial.hh"
#include "../oracles/twod_parity.hh"

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
    EXPECT_EQ(arr.config().interleaveDegree *
                  arr.code().burstDetectCapability(),
              32u);
    EXPECT_EQ(arr.config().verticalParityRows, 32u);
}

TEST(TwoDimArray, CleanRoundTripAndParityInvariant)
{
    Rng rng(110);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    EXPECT_TRUE(oracle::verifyParity(arr));
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
    EXPECT_TRUE(oracle::verifyParity(arr));
    expectAllGolden(arr, golden);
}

TEST(TwoDimArray, EveryWriteIsReadBeforeWrite)
{
    TwoDimArray arr(smallConfig());
    const TwoDimStats before = arr.stats();
    BitVector data(arr.dataBits(), 42);
    for (int i = 0; i < 10; ++i)
        arr.writeWord(0, 0, data);
    EXPECT_EQ(arr.stats().writes - before.writes, 10u);
    EXPECT_EQ(arr.stats().readBeforeWrites - before.readBeforeWrites, 10u);
}

TEST(TwoDimArray, RecoversSingleRowBurst)
{
    // A 32-bit burst in one row: horizontal EDC8+Intv4 detects it,
    // the vertical group reconstructs the row.
    Rng rng(111);
    TwoDimArray arr(smallConfig());
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.inject(arr.cells(),
               {.shape = FaultShape::kRowBurst, .width = 32, .rowLo = 13});

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
    inj.inject(arr.cells(), {.shape = FaultShape::kFullRow, .rowLo = 29});
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
        inj.inject(arr.cells(), FaultModel::cluster(width, height));
        const bool ok = arr.scrub();
        ASSERT_TRUE(ok) << width << "x" << height;
        expectAllGolden(arr, golden);
        ASSERT_TRUE(oracle::verifyParity(arr));
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
        inj.inject(arr.cells(), FaultModel::cluster(32, 8, 0.5));
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
    inj.inject(arr.cells(), FaultModel::cluster(32, 32));
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
    EXPECT_TRUE(oracle::verifyParity(arr));
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
    inj.inject(arr.cells(), {.shape = FaultShape::kColumnBurst,
                             .height = 20, // 20 rows > V=8
                             .colLo = 17});
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
    inj.inject(arr.cells(), {.shape = FaultShape::kCluster,
                             .width = 16,
                             .height = 16,
                             .rowLo = 0,
                             .colLo = 0});
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
    inj.inject(arr.cells(), {.shape = FaultShape::kRowBurst,
                             .width = 64,
                             .rowLo = 9,
                             .colLo = 0});

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
    EXPECT_TRUE(oracle::verifyParity(arr)); // inline fix maintained parity
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
    inj.inject(arr.cells(),
               {.shape = FaultShape::kRowBurst, .width = 8, .rowLo = 40});
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
    inj.inject(arr.cells(),
               {.shape = FaultShape::kRowBurst, .width = 32, .rowLo = 20});
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
    EXPECT_FALSE(oracle::verifyParity(arr));
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
    EXPECT_TRUE(oracle::verifyParity(arr));
}

TEST(TwoDimArray, L2ConfigurationAlsoCovers32x32)
{
    // EDC16+Intv2 over 256-bit words: same 32x32 coverage with less
    // interleaving power cost (the paper's L2 design point).
    Rng rng(123);
    TwoDimConfig cfg = parseTwoDimConfig("2d:edc16/i2+vp32/w256");
    EXPECT_EQ(cfg.horizontalKind, CodeKind::kEdc16);
    EXPECT_EQ(cfg.wordBits, 256u);
    EXPECT_EQ(cfg.interleaveDegree, 2u);
    EXPECT_EQ(cfg.verticalParityRows, 32u);
    EXPECT_EQ(cfg.dataRows, 256u);
    cfg.dataRows = 64; // keep the test fast
    TwoDimArray arr(cfg);
    EXPECT_EQ(cfg.interleaveDegree * arr.code().burstDetectCapability(),
              32u);
    auto golden = fill(arr, rng);
    FaultInjector inj(rng);
    inj.inject(arr.cells(), FaultModel::cluster(32, 16));
    ASSERT_TRUE(arr.scrub());
    expectAllGolden(arr, golden);
}

// --- Recovery memo: a failed fixed-point sweep is replayed, not re-run
//
// The trials below are sessionTrial (word_trial.hh): trial 0 of an
// injection cell run word by word through writeWord / readWord, the
// reference the scheme layer's line-granular session agrees with.

/**
 * The recovery storm: under an EDC8 horizontal code, a full column
 * (1x256, even rows per parity group, so the vertical code is blind)
 * or a dead chip cannot be recovered. The scrub requests one recovery
 * and each of the 256 reads of a word that detects requests another;
 * all 257 are charged, but only the first sweeps the bank: it fails
 * without writing anything, so the bank is a fixed point. The row-read
 * figure is cells().readCount() for the whole trial (fill, scrub,
 * sweeps, reads); a replayed recovery adds none.
 */
TEST(TwoDimRecoveryMemo, StormTrialChargesEveryRecoveryButSweepsOnce)
{
    for (const char *fault : {"1x256", "chip:any"}) {
        TwoDimArray arr(TwoDimConfig::l1Default());
        sessionTrial(arr, parseFaultModel(fault), 77);
        EXPECT_EQ(arr.stats().recoveries, 257u) << fault;
        EXPECT_EQ(arr.stats().recoveryFailures, 257u) << fault;
        EXPECT_EQ(arr.stats().recoverySweeps, 1u) << fault;
        EXPECT_EQ(arr.cells().readCount(), 2819u) << fault;
        EXPECT_FALSE(arr.lastRecovery().success) << fault;
    }
}

TEST(TwoDimRecoveryMemo, RecoverableTrialSweepsOnce)
{
    TwoDimArray arr(TwoDimConfig::l1Default());
    sessionTrial(arr, FaultModel::cluster(32, 32), 77);
    EXPECT_EQ(arr.stats().recoveries, 1u);
    EXPECT_EQ(arr.stats().recoverySweeps, 1u);
    EXPECT_EQ(arr.stats().recoveryFailures, 0u);
}

TEST(TwoDimRecoveryMemo, SweepCounterMergesAcrossBanks)
{
    TwoDimStats a, b;
    a.recoverySweeps = 2;
    b.recoverySweeps = 3;
    a += b;
    EXPECT_EQ(a.recoverySweeps, 5u);
}

/** Every field of a RecoveryReport, element for element. */
void
expectSameReport(const RecoveryReport &a, const RecoveryReport &b,
                 const std::string &what)
{
    EXPECT_EQ(a.success, b.success) << what;
    EXPECT_EQ(a.rowReads, b.rowReads) << what;
    EXPECT_EQ(a.rowsReconstructed, b.rowsReconstructed) << what;
    EXPECT_EQ(a.columnsRepaired, b.columnsRepaired) << what;
    EXPECT_EQ(a.usedColumnPath, b.usedColumnPath) << what;
}

struct MemoDiffCase
{
    CodeKind horizontal;
    const char *fault;
    bool permanent;
    /** The first recovery fails at a fixed point, so bank A's second
     *  call replays it (otherwise both banks sweep twice). */
    bool memoHit;
};

std::string
memoCaseName(const MemoDiffCase &c)
{
    return std::string(c.horizontal == CodeKind::kSecDed ? "secded" : "edc8") +
           " " + c.fault + (c.permanent ? " hard" : "");
}

/** Stable test-list text (the raw bytes would print pointers). */
void
PrintTo(const MemoDiffCase &c, std::ostream *os)
{
    *os << memoCaseName(c);
}

class RecoveryMemoDiffTest : public ::testing::TestWithParam<MemoDiffCase>
{
};

/**
 * A memo hit equals a re-run. Twin banks get the same fill and the
 * same fault. Bank A recovers twice; bank B recovers, flips one cell
 * twice (the epoch moves, the content does not) and recovers again,
 * so its second call is a real sweep from the state A's second call
 * may have replayed. Reports, every data and parity row and the
 * verdict of every word must agree.
 */
TEST_P(RecoveryMemoDiffTest, MemoHitEqualsRerun)
{
    const MemoDiffCase &c = GetParam();
    const std::string name = memoCaseName(c);
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.horizontalKind = c.horizontal;
    FaultModel fault = parseFaultModel(c.fault);
    if (c.permanent)
        fault.persistence = FaultPersistence::kStuckAt;

    TwoDimArray a(cfg), b(cfg);
    for (TwoDimArray *arr : {&a, &b}) {
        Rng rng(4242);
        fill(*arr, rng);
        FaultInjector(rng).inject(arr->cells(), fault);
    }

    expectSameReport(a.recover(), b.recover(), name + ": first call");
    const RecoveryReport replayed = a.recover();
    b.cells().flipBit(0, 0);
    b.cells().flipBit(0, 0);
    const RecoveryReport rerun = b.recover();
    EXPECT_EQ(b.stats().recoverySweeps, 2u) << name;
    EXPECT_EQ(a.stats().recoverySweeps, c.memoHit ? 1u : 2u) << name;
    expectSameReport(replayed, rerun, name + ": second call");

    for (size_t r = 0; r < a.rows(); ++r)
        ASSERT_EQ(a.cells().readRow(r), b.cells().readRow(r))
            << name << ": data row " << r;
    for (size_t g = 0; g < a.vertical().groups(); ++g)
        ASSERT_EQ(a.vertical().readGroup(g), b.vertical().readGroup(g))
            << name << ": parity row " << g;
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t s = 0; s < a.wordsPerRow(); ++s) {
            const AccessResult ra = a.readWord(r, s);
            const AccessResult rb = b.readWord(r, s);
            ASSERT_EQ(ra.status, rb.status) << name << ": word " << r
                                            << "/" << s;
            ASSERT_EQ(ra.data, rb.data) << name << ": word " << r << "/"
                                        << s;
        }
    }
    EXPECT_EQ(a.stats().recoveries, b.stats().recoveries) << name;
    EXPECT_EQ(a.stats().recoveryFailures, b.stats().recoveryFailures)
        << name;
}

constexpr CodeKind kEdc8 = CodeKind::kEdc8;
constexpr CodeKind kSecDed = CodeKind::kSecDed;

INSTANTIATE_TEST_SUITE_P(
    StormAndRecoverableFaults, RecoveryMemoDiffTest,
    ::testing::Values(MemoDiffCase{kEdc8, "1x256", false, true},
                      MemoDiffCase{kEdc8, "chip:any", false, true},
                      MemoDiffCase{kEdc8, "fullcol", false, true},
                      MemoDiffCase{kEdc8, "33x33", false, false},
                      MemoDiffCase{kEdc8, "hammer:3@0.5", false, false},
                      MemoDiffCase{kEdc8, "row:32", true, true},
                      MemoDiffCase{kSecDed, "1x256", false, false},
                      MemoDiffCase{kSecDed, "chip:any", false, false},
                      MemoDiffCase{kSecDed, "fullcol", false, false},
                      MemoDiffCase{kSecDed, "33x33", false, true},
                      MemoDiffCase{kSecDed, "hammer:3@0.5", false, false},
                      MemoDiffCase{kSecDed, "row:32", true, true}),
    [](const ::testing::TestParamInfo<MemoDiffCase> &info) {
        std::string name = memoCaseName(info.param);
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

/**
 * A small bank whose recovery fails at a fixed point: a transient
 * full-height column (even rows per parity group, so the vertical
 * code cannot see it) under EDC8. The second recover() is a memo hit.
 */
struct FailedBank
{
    TwoDimArray arr{smallConfig()};
    Rng rng{131};
    std::vector<std::vector<BitVector>> golden = fill(arr, rng);

    FailedBank()
    {
        FaultInjector(rng).inject(
            arr.cells(), {.shape = FaultShape::kFullColumn, .colLo = 9});
        EXPECT_FALSE(arr.recover().success);
        EXPECT_FALSE(arr.recover().success);
        EXPECT_EQ(arr.stats().recoveries, 2u);
        EXPECT_EQ(arr.stats().recoverySweeps, 1u);
    }
};

TEST(TwoDimRecoveryMemo, AnyChangeToTheBankForcesARealSweep)
{
    const std::pair<const char *, std::function<void(FailedBank &)>>
        invalidators[] = {
            {"writeWord",
             [](FailedBank &f) {
                 BitVector other = f.golden[3][1];
                 other.flip(0);
                 f.arr.writeWord(3, 1, other);
             }},
            {"injection",
             [](FailedBank &f) {
                 FaultInjector(f.rng).inject(f.arr.cells(),
                                             FaultModel::singleBit());
             }},
            {"parity-cell flip",
             [](FailedBank &f) { f.arr.vertical().cells().flipBit(2, 17); }},
        };
    for (const auto &[name, invalidate] : invalidators) {
        FailedBank f;
        invalidate(f);
        f.arr.recover();
        EXPECT_EQ(f.arr.stats().recoverySweeps, 2u) << name;
        f.arr.recover();
        EXPECT_EQ(f.arr.stats().recoveries, 4u) << name;
    }
}

TEST(TwoDimRecoveryMemo, WritingTheSameWordKeepsTheMemo)
{
    // writeWord of a word's current contents changes no stored bit and
    // no parity bit, so the failed sweep is still a fixed point.
    FailedBank f;
    const AccessResult current = f.arr.readWord(5, 2);
    ASSERT_TRUE(current.ok());
    f.arr.writeWord(5, 2, current.data);
    f.arr.recover();
    EXPECT_EQ(f.arr.stats().recoverySweeps, 1u);
}

TEST(TwoDimRecoveryMemo, RowRepairAfterAHardFaultLetsRecoverySucceed)
{
    // A stuck-at row burst under EDC8: reconstruction writes the
    // row's original content, which the stored bits under the stuck
    // overlay still hold, so nothing changes; the stuck cells keep the
    // row corrupt and recovery fails at a fixed point. A spare-row
    // style repair (clearRowFaults, then the golden words rewritten)
    // changes the bank, and the next recovery runs for real and
    // succeeds.
    TwoDimArray arr(smallConfig());
    Rng rng(137);
    const auto golden = fill(arr, rng);
    FaultInjector(rng).inject(arr.cells(),
                              {.shape = FaultShape::kRowBurst,
                               .persistence = FaultPersistence::kStuckAt,
                               .width = 32,
                               .rowLo = 21});
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoverySweeps, 1u);

    const auto stuck = arr.cells().stuckRows();
    ASSERT_EQ(stuck.size(), 1u);
    const size_t row = stuck[0].first;
    arr.cells().clearRowFaults(row);
    for (size_t s = 0; s < arr.wordsPerRow(); ++s)
        arr.writeWord(row, s, golden[row][s]);
    EXPECT_TRUE(arr.recover().success);
    EXPECT_EQ(arr.stats().recoverySweeps, 2u);
    expectAllGolden(arr, golden);
}

} // namespace
} // namespace tdc
