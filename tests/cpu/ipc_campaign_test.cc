/**
 * @file
 * Determinism-differential tests for the Figure 5 IPC-loss campaign:
 * the campaign table must equal the values computed by hand from a
 * serial cmp_batch (matched-pair baseline), and must be bit-identical
 * at every worker-pool size.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/table.hh"
#include "cpu/ipc_campaign.hh"
#include "memory_only_cache.hh"
#include "reliability/result_cache.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

IpcLossCampaignSpec
smallSpec()
{
    IpcLossCampaignSpec spec =
        IpcLossCampaignSpec::figure5(CmpConfig::fat(), "--- test ---");
    spec.cycles = 20000; // keep the grid cheap for unit testing
    spec.seed = 7;
    return spec;
}

TEST(IpcCampaign, MatchesHandComputedLossTable)
{
    MemoryOnlyCache memory_only;
    const IpcLossCampaignSpec spec = smallSpec();
    const CampaignResult res = runIpcLossCampaign(spec);

    const std::vector<WorkloadProfile> &workloads = standardWorkloads();
    ASSERT_EQ(res.rows.size(), workloads.size() + 1); // + Average row
    EXPECT_EQ(res.rows.back()[0], "Average");

    // Recompute one workload row with plain matched-pair runs, simulated
    // afresh rather than served from the campaign's cached runs.
    resultCache().clearMemory();
    const size_t wi = 2;
    std::vector<CmpRunSpec> pair = {
        {spec.machine, workloads[wi], ProtectionConfig::none(), spec.seed},
        {spec.machine, workloads[wi], ProtectionConfig::full(true),
         spec.seed},
    };
    const std::vector<CmpSimResult> runs = runCmpBatch(pair, spec.cycles);
    const double loss =
        (runs[0].ipc() - runs[1].ipc()) / runs[0].ipc();
    // Column 3 is "L1(steal) + L2" == ProtectionConfig::full(true);
    // each row leads with its workload label.
    EXPECT_EQ(res.rows[wi][0], workloads[wi].name);
    EXPECT_EQ(res.rows[wi][1 + 3], Table::pct(loss));
}

TEST(IpcCampaign, IdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    MemoryOnlyCache memory_only;
    // Each thread count simulates its runs: the campaign memoises them
    // in the process-wide result cache, so drop its memory tier first.
    resultCache().clearMemory();
    setParallelThreads(1);
    const std::string serial = runIpcLossCampaign(smallSpec()).render();
    for (unsigned threads : {2u, 4u, 8u}) {
        resultCache().clearMemory();
        setParallelThreads(threads);
        EXPECT_EQ(runIpcLossCampaign(smallSpec()).render(), serial)
            << threads << " threads";
    }
}

} // namespace
} // namespace tdc
