/**
 * @file
 * Cross-module integration tests: the 2D-coded array driven by a
 * cache-like access stream, the Section 5.2 yield scenario end to end,
 * and consistency between the timing simulator's protection traffic
 * and the functional coding layer's semantics.
 */

#include <gtest/gtest.h>

#include <map>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "cpu/cmp_simulator.hh"
#include "reliability/soft_error_model.hh"
#include "workload/instruction_stream.hh"

namespace tdc
{
namespace
{

/**
 * Drive a 2D-protected data bank with a seeded cache-like access
 * stream: 320 line addresses fold onto the bank's 256 (row, slot)
 * words, the way a cache multiplexes lines onto its data array. The
 * first touch of a word is a fill and later touches are reads or
 * writes; fills and writes go through writeWord (read-before-write),
 * reads through readWord. Faults are injected mid-stream; every read
 * must return the last value written to its word.
 */
TEST(EndToEnd, CacheStreamOverTwoDimBank)
{
    Rng rng(4242);
    TwoDimArray bank(TwoDimConfig::l1Default()); // 256 rows x 4 words
    FaultInjector inj(rng);

    std::map<std::pair<size_t, size_t>, uint64_t> golden;
    uint64_t next_value = 1;

    for (int step = 0; step < 4000; ++step) {
        const size_t idx = size_t(rng.nextBelow(320) % 256);
        const bool is_write = rng.nextBool(0.3);
        const std::pair<size_t, size_t> word(idx / 4, idx % 4);

        const auto it = golden.find(word);
        if (it == golden.end() || is_write) {
            // Fill or write: store a fresh value through the 2D bank.
            const uint64_t value = next_value++;
            bank.writeWord(word.first, word.second, BitVector(64, value));
            golden[word] = value;
        } else {
            // Read: the bank word must match the last written value.
            const AccessResult res = bank.readWord(word.first, word.second);
            ASSERT_TRUE(res.ok());
            ASSERT_EQ(res.data.toUint64(), it->second) << "step " << step;
        }

        // Periodic error events + scrub.
        if (step % 500 == 250) {
            inj.inject(bank.cells(), FaultModel::cluster(16, 8));
            ASSERT_TRUE(bank.scrub()) << "step " << step;
        }
    }
    EXPECT_TRUE(bank.verifyParity());
}

TEST(EndToEnd, Section52YieldScenario)
{
    // Manufacture-time: scatter single-bit stuck-at faults; SECDED
    // horizontal corrects them in line (no spares consumed). In the
    // field: soft-error clusters arrive; the vertical dimension keeps
    // recovering them even in words that carry a hard fault.
    Rng rng(777);
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kSecDed;
    cfg.dataRows = 128;
    cfg.verticalParityRows = 16;
    TwoDimArray bank(cfg);

    std::vector<std::vector<BitVector>> golden(
        bank.rows(), std::vector<BitVector>(bank.wordsPerRow()));
    for (size_t r = 0; r < bank.rows(); ++r)
        for (size_t s = 0; s < bank.wordsPerRow(); ++s) {
            golden[r][s] = BitVector(64, rng.next());
            bank.writeWord(r, s, golden[r][s]);
        }

    // 12 manufacture-time hard faults (well below one per word-pair).
    FaultInjector inj(rng);
    for (int i = 0; i < 12; ++i)
        inj.inject(bank.cells(),
                   {.shape = FaultShape::kSingleBit,
                    .persistence = FaultPersistence::kStuckAt});

    // All data still readable (inline SECDED corrections).
    for (size_t r = 0; r < bank.rows(); ++r)
        for (size_t s = 0; s < bank.wordsPerRow(); ++s) {
            AccessResult res = bank.readWord(r, s);
            ASSERT_TRUE(res.ok());
            ASSERT_EQ(res.data, golden[r][s]);
        }

    // Five years of in-field events: bursts within coverage.
    for (int event = 0; event < 20; ++event) {
        inj.inject(bank.cells(), FaultModel::rowBurst(8));
        ASSERT_TRUE(bank.scrub()) << "event " << event;
        for (size_t r = 0; r < bank.rows(); ++r)
            for (size_t s = 0; s < bank.wordsPerRow(); ++s)
                ASSERT_EQ(bank.readWord(r, s).data, golden[r][s]);
    }

    // The closed-form model agrees qualitatively: with 2D the success
    // probability is 1; without it, it decays.
    SoftErrorModel model(ReliabilityParams::figure8b(0.00005));
    EXPECT_LT(model.successProbability(5.0), 1.0);
    EXPECT_DOUBLE_EQ(model.successProbabilityWith2D(5.0), 1.0);
}

TEST(EndToEnd, SimulatorTrafficMatchesCodingSemantics)
{
    // The timing simulator must charge exactly one extra read per
    // array write (store drain or fill) — the same rule the
    // functional TwoDimArray implements (readBeforeWrites == writes).
    const WorkloadProfile &w = workloadByName("OLTP");
    CmpSimulator sim(CmpConfig::fat(), w, ProtectionConfig::l1Only(false),
                     9);
    const CmpSimResult r = sim.run(50000);
    EXPECT_EQ(r.l1ExtraReads, r.l1Writes + r.l1FillEvict);

    TwoDimArray arr(TwoDimConfig::l1Default());
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        arr.writeWord(rng.nextBelow(arr.rows()), rng.nextBelow(4),
                      BitVector(64, rng.next()));
    EXPECT_EQ(arr.stats().readBeforeWrites, arr.stats().writes);
}

TEST(EndToEnd, MatchedPairRunsShareInstructionStreams)
{
    // The SimFlex-style matched-pair methodology requires baseline and
    // protected runs to see identical instruction sequences: their
    // committed instruction counts may differ (stalls), but their
    // demand miss *rates* must be statistically identical.
    const WorkloadProfile &w = workloadByName("DSS");
    CmpSimulator base(CmpConfig::lean(), w, ProtectionConfig::none(), 5);
    CmpSimulator prot(CmpConfig::lean(), w, ProtectionConfig::full(true),
                      5);
    const CmpSimResult rb = base.run(80000);
    const CmpSimResult rp = prot.run(80000);
    const double base_miss_rate =
        double(rb.l2ReadsData) / double(rb.l1ReadsData);
    const double prot_miss_rate =
        double(rp.l2ReadsData) / double(rp.l1ReadsData);
    EXPECT_NEAR(base_miss_rate, prot_miss_rate, 0.004);
    // And protection can only lower IPC, never raise it materially.
    EXPECT_LT(rp.ipc(), rb.ipc() * 1.005);
}

TEST(EndToEnd, RecoveryUnderConcurrentHardAndSoftFaults)
{
    // Mixed persistence: stuck-at cells plus a transient cluster in
    // the same bank. Scrub must repair the transients; the stuck
    // cells keep being inline-corrected (SECDED horizontal).
    Rng rng(31415);
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kSecDed;
    cfg.dataRows = 64;
    cfg.verticalParityRows = 8;
    TwoDimArray bank(cfg);
    std::vector<std::vector<BitVector>> golden(
        bank.rows(), std::vector<BitVector>(bank.wordsPerRow()));
    for (size_t r = 0; r < bank.rows(); ++r)
        for (size_t s = 0; s < bank.wordsPerRow(); ++s) {
            golden[r][s] = BitVector(64, rng.next());
            bank.writeWord(r, s, golden[r][s]);
        }

    FaultInjector inj(rng);
    for (int i = 0; i < 5; ++i)
        inj.inject(bank.cells(),
                   {.shape = FaultShape::kSingleBit,
                    .persistence = FaultPersistence::kStuckAt});
    inj.inject(bank.cells(), FaultModel::cluster(8, 4));

    ASSERT_TRUE(bank.scrub());
    for (size_t r = 0; r < bank.rows(); ++r)
        for (size_t s = 0; s < bank.wordsPerRow(); ++s)
            ASSERT_EQ(bank.readWord(r, s).data, golden[r][s]);
}

} // namespace
} // namespace tdc
