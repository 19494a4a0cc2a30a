/**
 * @file
 * Why 2D coding with a SECDED horizontal code, 4-way interleave and 32
 * vertical parity rows (2d:secded/i4+vp32) lets a few solid 32x32
 * clusters through silently. One recorded failing trial of the
 * campaign cell `--scheme 2d:secded/i4+vp32 --fault 16x16 --fault
 * 32x32 --events 2000 --seed 12345` (the 32x32 cell, 35 silent trials
 * of 2000) is pinned as the anchor.
 *
 * Under i4 a 32-column burst puts 8 adjacent bits in every word. The
 * (72,64) Hsiao code has odd-weight columns, so an 8-bit error always
 * leaves an even-weight syndrome and can never be miscorrected as a
 * single-bit error: it is either detected or, when the 8 columns XOR
 * to zero, a codeword. Four 8-bit windows of the code are codewords.
 * A cluster whose first column is 4 times such a window's start puts
 * that window in all four words of each of its 32 rows, every
 * horizontal check passes, no recovery runs, and the corruption is
 * silent. Every other anchor leaves at least one word per row
 * detected, and the vertical parity rebuilds the rows.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "array/interleave.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ecc/hsiao.hh"
#include "scheme/scheme.hh"

namespace tdc
{
namespace
{

using Verdict = DeviceSession::Verdict;

/** First bits b of the windows [b, b+width) that are codewords. */
std::vector<size_t>
codewordWindows(const Code &code, size_t width)
{
    std::vector<size_t> starts;
    for (size_t b = 0; b + width <= code.codewordBits(); ++b) {
        BitVector e(code.codewordBits());
        for (size_t i = b; i < b + width; ++i)
            e.set(i, true);
        if (code.syndromeClean(e))
            starts.push_back(b);
    }
    return starts;
}

TEST(SecdedClusterAnchor, CodewordWindowsOfHsiao72)
{
    // 8 bits per word under a 32-wide burst, 4 under a 16-wide one
    // (the 16x16 cell fails the same way at 4 times these starts).
    const HsiaoSecDedCode code(64);
    EXPECT_EQ(codewordWindows(code, 8), (std::vector<size_t>{6, 26, 41, 52}));
    EXPECT_EQ(codewordWindows(code, 4),
              (std::vector<size_t>{5, 8, 11, 21, 36, 54}));
}

TEST(SecdedClusterAnchor, RecordedSilentTrialIsACodewordInEveryWord)
{
    const SchemePtr scheme = parseScheme("2d:secded/i4+vp32");
    const FaultModel fault = parseFaultModel("32x32");
    // Cell (row 1, column 0) of the two-fault grid above, trial 1.
    const uint64_t cellSeed = shardSeed(12345, 1);
    const uint64_t trial = 1;

    Rng rng(shardSeed(cellSeed, trial));
    const std::unique_ptr<DeviceSession> session = scheme->openSession(rng);
    MemoryArray &cells = session->cells();
    std::vector<BitVector> before;
    for (size_t r = 0; r < cells.rows(); ++r)
        before.push_back(cells.readRow(r));
    session->inject(fault, rng);

    // The cluster landed on rows [1, 33) and columns [24, 56): in each
    // of those rows every word holds its bits [6, 14) flipped, a
    // Hsiao codeword.
    const HsiaoSecDedCode code(64);
    const InterleaveMap map(code.codewordBits(), 4);
    BitVector window(code.codewordBits());
    for (size_t b = 6; b < 14; ++b)
        window.set(b, true);
    ASSERT_TRUE(code.syndromeClean(window));
    for (size_t r = 0; r < cells.rows(); ++r) {
        BitVector delta = cells.readRow(r);
        delta ^= before[r];
        const bool hit = r >= 1 && r < 33;
        ASSERT_EQ(delta.popcount(), hit ? 32u : 0u) << "row " << r;
        if (!hit)
            continue;
        for (size_t c = 24; c < 56; ++c)
            ASSERT_TRUE(delta.get(c)) << "row " << r << " column " << c;
        for (size_t slot = 0; slot < map.degree(); ++slot)
            EXPECT_EQ(map.extractWord(delta, slot), window)
                << "row " << r << " slot " << slot;
    }
    EXPECT_EQ(session->scrubAndVerify(), Verdict::kSdc);

    // The campaign path reaches the same verdict: trial 0 of the cell
    // is corrected and trial 1 is the silent one.
    const InjectionOutcome o = scheme->injectAndRecover(fault, 2, cellSeed);
    EXPECT_EQ(o.corrected, 1);
    EXPECT_EQ(o.silent, 1);
}

TEST(SecdedClusterAnchor, OnlyColumnsFourTimesACodewordWindowAreSilent)
{
    // Every column anchor of a solid 32x32 cluster on a 64-row bank.
    // A uniformly drawn anchor is silent with probability 4/257, so
    // a 40-trial cell shows no failure about 53% of the time.
    const SchemePtr scheme = parseScheme("2d:secded/i4+vp32/r64");
    FaultModel fault = FaultModel::cluster(32, 32);
    fault.rowLo = 0;
    std::vector<size_t> silent;
    for (size_t c = 0; c + 32 <= 4 * 72; ++c) {
        fault.colLo = long(c);
        Rng rng(shardSeed(7, c));
        const std::unique_ptr<DeviceSession> session =
            scheme->openSession(rng);
        session->inject(fault, rng);
        const Verdict v = session->scrubAndVerify();
        EXPECT_NE(v, Verdict::kDue) << "column " << c;
        if (v == Verdict::kSdc)
            silent.push_back(c);
    }
    EXPECT_EQ(silent, (std::vector<size_t>{24, 104, 164, 208}));
}

} // namespace
} // namespace tdc
