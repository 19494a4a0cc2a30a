#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/stable_hash.hh"
#include "workload/instruction_stream.hh"
#include "workload/workload_profile.hh"
#include "../oracles/framed_u64.hh"

namespace tdc
{
namespace
{

TEST(WorkloadProfile, SixStandardWorkloadsInFigureOrder)
{
    const auto &all = standardWorkloads();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "OLTP");
    EXPECT_EQ(all[1].name, "DSS");
    EXPECT_EQ(all[2].name, "Web");
    EXPECT_EQ(all[3].name, "Moldyn");
    EXPECT_EQ(all[4].name, "Ocean");
    EXPECT_EQ(all[5].name, "Sparse");
}

TEST(WorkloadProfile, CommercialVsScientificSplit)
{
    for (const auto &w : standardWorkloads()) {
        const bool is_sci = w.name == "Moldyn" || w.name == "Ocean" ||
                            w.name == "Sparse";
        EXPECT_EQ(w.scientific, is_sci) << w.name;
    }
}

TEST(WorkloadProfile, CommercialHasInstructionFootprint)
{
    // Commercial workloads miss the L1I visibly; scientific kernels
    // fit (the Read:Inst traffic split of Figure 6(c)/(d)).
    for (const auto &w : standardWorkloads()) {
        if (w.scientific)
            EXPECT_LT(w.l1iMissRate, 0.005) << w.name;
        else
            EXPECT_GT(w.l1iMissRate, 0.01) << w.name;
    }
}

TEST(WorkloadProfile, LookupByName)
{
    EXPECT_EQ(workloadByName("Ocean").name, "Ocean");
    EXPECT_DOUBLE_EQ(workloadByName("DSS").loadFrac, 0.30);
}

TEST(WorkloadProfile, ProbabilitiesAreSane)
{
    for (const auto &w : standardWorkloads()) {
        EXPECT_GT(w.loadFrac, 0.0);
        EXPECT_GT(w.storeFrac, 0.0);
        EXPECT_LT(w.loadFrac + w.storeFrac, 0.6) << w.name;
        EXPECT_GT(w.loadFrac, w.storeFrac) << w.name;
        EXPECT_GT(w.l1dMissRate, 0.0);
        EXPECT_LT(w.l1dMissRate, 0.2);
        EXPECT_GT(w.l2MissRate, 0.0);
        EXPECT_LT(w.l2MissRate, 0.8);
    }
}

TEST(InstructionStream, DeterministicPerSeed)
{
    const WorkloadProfile &w = workloadByName("OLTP");
    InstructionStream a(w, 7);
    InstructionStream b(w, 7);
    for (int i = 0; i < 1000; ++i) {
        const SyntheticInstr x = a.next();
        const SyntheticInstr y = b.next();
        ASSERT_EQ(x.kind, y.kind);
        ASSERT_EQ(x.l1dMiss, y.l1dMiss);
        ASSERT_EQ(x.bubbles, y.bubbles);
        ASSERT_EQ(x.bankHash, y.bankHash);
    }
}

TEST(InstructionStream, GoldenStreamPerWorkload)
{
    // Digest of every field of the first 10^4 instructions of each
    // standard workload: pins the exact draw sequence, so a faster
    // generator must make the same decision on every draw.
    const struct
    {
        const char *workload;
        const char *digest;
    } pins[] = {
        {"OLTP", "c554e0b53179db5cdcc7349d45ca657b"},
        {"DSS", "7099e2c4da5ff078418e17fccf3ecd8d"},
        {"Web", "57074db3a04dd7ee50092ae5ee3c4f44"},
        {"Moldyn", "ef23804955426360b21a80d6c6310225"},
        {"Ocean", "93403f8a861fbd511d29062c9424fae3"},
        {"Sparse", "ba49ff4bc1eb50bb71d3ec155b1030ef"},
    };
    for (const auto &pin : pins) {
        InstructionStream s(workloadByName(pin.workload), 7);
        StableHash h;
        for (int i = 0; i < 10000; ++i) {
            const SyntheticInstr x = s.next();
            oracle::updateU64(h, uint64_t(x.kind));
            oracle::updateU64(
                h, uint64_t(x.ifetchMiss) | uint64_t(x.l1dMiss) << 1 |
                       uint64_t(x.l2Miss) << 2 |
                       uint64_t(x.dirtyEvict) << 3 |
                       uint64_t(x.dirtyShared) << 4);
            oracle::updateU64(h, uint64_t(x.bankHash));
            oracle::updateU64(h, uint64_t(x.bubbles));
        }
        EXPECT_EQ(h.digest().hex(), pin.digest) << pin.workload;
    }
}

/** Every field of @p x, as one comparable tuple. */
auto
fieldsOf(const SyntheticInstr &x)
{
    return std::make_tuple(x.kind, x.ifetchMiss, x.l1dMiss, x.l2Miss,
                           x.dirtyEvict, x.dirtyShared, x.bankHash,
                           x.bubbles);
}

/** The first @p n instructions of stream (@p workload, @p seed). */
std::vector<SyntheticInstr>
generated(const char *workload, uint64_t seed, size_t n)
{
    InstructionStream s(workloadByName(workload), seed);
    std::vector<SyntheticInstr> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(s.next());
    return out;
}

TEST(StreamRing, EveryReaderSeesTheGeneratorsSequence)
{
    // A leader runs up to capacity - 1 instructions ahead of a
    // follower, so the ring wraps many times while both read it.
    for (const char *workload : {"OLTP", "Moldyn"}) {
        const std::vector<SyntheticInstr> truth =
            generated(workload, 5, 4000);
        StreamRing ring(workloadByName(workload), 5, 8);
        Rng steps(11);
        uint64_t lead = 0;
        uint64_t lag = 0;
        while (lead < truth.size()) {
            const uint64_t ahead = 1 + steps.nextBelow(7);
            for (; lead < truth.size() && lead < lag + ahead; ++lead)
                ASSERT_EQ(fieldsOf(ring.read(lead)), fieldsOf(truth[lead]))
                    << workload << " leader at " << lead;
            for (uint64_t n = steps.nextBelow(lead - lag + 1); n > 0;
                 --n, ++lag)
                ASSERT_EQ(fieldsOf(ring.read(lag)), fieldsOf(truth[lag]))
                    << workload << " follower at " << lag;
        }
    }
}

TEST(StreamRing, ForkContinuesTheSequenceFromItsReader)
{
    const std::vector<SyntheticInstr> truth = generated("Web", 3, 500);
    StreamRing ring(workloadByName("Web"), 3, 8);
    for (uint64_t p = 0; p < 20; ++p)
        ring.read(p);
    // A reader five instructions behind the head takes the buffered
    // five and the generator with it; the shared ring carries on too.
    StreamRing fork = ring.forkAt(15);
    for (uint64_t p = 15; p < truth.size(); ++p)
        ASSERT_EQ(fieldsOf(fork.read(p)), fieldsOf(truth[p])) << p;
    for (uint64_t p = 15; p < truth.size(); ++p)
        ASSERT_EQ(fieldsOf(ring.read(p)), fieldsOf(truth[p])) << p;
}

TEST(InstructionStream, MixMatchesProfileFractions)
{
    const WorkloadProfile &w = workloadByName("DSS");
    InstructionStream s(w, 11);
    const int n = 200000;
    int loads = 0, stores = 0, l1d_misses = 0, data_ops = 0;
    for (int i = 0; i < n; ++i) {
        const SyntheticInstr instr = s.next();
        if (instr.kind == SyntheticInstr::Kind::kLoad)
            ++loads;
        if (instr.kind == SyntheticInstr::Kind::kStore)
            ++stores;
        if (instr.kind != SyntheticInstr::Kind::kNonMem) {
            ++data_ops;
            l1d_misses += instr.l1dMiss;
        }
    }
    // Bursts boost the memory mix above the base fractions, so allow
    // a one-sided margin.
    EXPECT_GT(double(loads) / n, w.loadFrac * 0.9);
    EXPECT_LT(double(loads) / n, w.loadFrac * 1.4);
    EXPECT_GT(double(stores) / n, w.storeFrac * 0.9);
    EXPECT_NEAR(double(l1d_misses) / data_ops, w.l1dMissRate,
                w.l1dMissRate * 0.2);
}

TEST(InstructionStream, BurstsOccurAndEnd)
{
    // Read from what the stream emits: bursts raise the memory-op
    // fraction above the calm mix, and because they also end, the
    // long-run fraction settles at the Markov chain's stationary
    // blend of the two mixes, well below the burst mix.
    const WorkloadProfile &w = workloadByName("Web");
    InstructionStream s(w, 13);
    const int n = 100000;
    int mem_ops = 0;
    for (int i = 0; i < n; ++i)
        mem_ops += s.next().kind != SyntheticInstr::Kind::kNonMem;
    const double frac = double(mem_ops) / n;

    const double calm = w.loadFrac + w.storeFrac;
    const double burst_load = std::min(0.9, w.loadFrac * w.burstLoadBoost);
    const double burst =
        burst_load +
        std::min(0.9 - burst_load, w.storeFrac * w.burstLoadBoost);
    const double burst_share =
        w.burstOnProb / (w.burstOnProb + w.burstOffProb);
    ASSERT_GT(burst - calm, 0.2);
    EXPECT_GT(frac, calm + 0.05);
    EXPECT_LT(frac, burst - 0.05);
    EXPECT_NEAR(frac, calm + burst_share * (burst - calm), 0.01);
}

TEST(InstructionStream, BubblesReflectIlpParameter)
{
    const WorkloadProfile &oltp = workloadByName("OLTP"); // low ILP
    const WorkloadProfile &mol = workloadByName("Moldyn"); // high ILP
    InstructionStream a(oltp, 17);
    InstructionStream b(mol, 17);
    uint64_t bub_a = 0, bub_b = 0;
    for (int i = 0; i < 100000; ++i) {
        bub_a += a.next().bubbles;
        bub_b += b.next().bubbles;
    }
    EXPECT_GT(bub_a, bub_b);
}

TEST(InstructionStream, MissFlagsOnlyOnDataOps)
{
    const WorkloadProfile &w = workloadByName("Sparse");
    InstructionStream s(w, 19);
    for (int i = 0; i < 10000; ++i) {
        const SyntheticInstr instr = s.next();
        if (instr.kind == SyntheticInstr::Kind::kNonMem) {
            EXPECT_FALSE(instr.l1dMiss);
            EXPECT_FALSE(instr.l2Miss);
        }
        if (!instr.l1dMiss) {
            EXPECT_FALSE(instr.l2Miss);
            EXPECT_FALSE(instr.dirtyEvict);
        }
    }
}

} // namespace
} // namespace tdc
