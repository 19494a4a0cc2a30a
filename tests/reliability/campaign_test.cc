/**
 * @file
 * Unit and determinism-differential tests of the campaign-grid
 * executor: it must assemble tables correctly and be bit-identical at
 * every worker-pool size. (The injection-campaign arms live behind
 * the ProtectionScheme API now and are covered by the scheme-layer
 * tests.)
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "reliability/campaign.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

CampaignGrid
arithmeticGrid()
{
    CampaignGrid grid;
    grid.title = "--- test ---";
    grid.rowHeader = "Row";
    grid.rowLabels = {"r0", "r1", "r2"};
    grid.colHeaders = {"c0", "c1"};
    grid.cell = [](size_t row, size_t col) {
        // Derived from the cell index only: any execution order must
        // produce the same table.
        return std::to_string(shardSeed(41, row * 2 + col) % 1000);
    };
    return grid;
}

TEST(Campaign, GridAssemblesLabelsAndCells)
{
    const CampaignResult res = runCampaignGrid(arithmeticGrid());
    ASSERT_EQ(res.headers.size(), 3u);
    EXPECT_EQ(res.headers[0], "Row");
    EXPECT_EQ(res.headers[2], "c1");
    // One row per grid row: its label, then cell (row, col) per column.
    ASSERT_EQ(res.rows.size(), 3u);
    for (size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(res.rows[r].size(), 3u);
        EXPECT_EQ(res.rows[r][0], "r" + std::to_string(r));
        for (size_t c = 0; c < 2; ++c)
            EXPECT_EQ(res.rows[r][1 + c],
                      std::to_string(shardSeed(41, r * 2 + c) % 1000));
    }
    // The rendered output embeds the title and every row label.
    const std::string text = res.render();
    EXPECT_NE(text.find("--- test ---"), std::string::npos);
    EXPECT_NE(text.find("r2"), std::string::npos);
}

TEST(Campaign, GridIdenticalAtEveryThreadCount)
{
    ThreadGuard guard;
    setParallelThreads(1);
    const std::string serial = runCampaignGrid(arithmeticGrid()).render();
    for (unsigned threads : {2u, 4u, 8u}) {
        setParallelThreads(threads);
        EXPECT_EQ(runCampaignGrid(arithmeticGrid()).render(), serial)
            << threads << " threads";
    }
}

} // namespace
} // namespace tdc
