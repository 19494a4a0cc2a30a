/**
 * @file
 * The Figure 5/6-style IPC-loss campaign: a declarative grid of
 * (machine x workload x protection) CmpSimulator runs, executed as one
 * cmp_batch over the worker pool and rendered through the unified
 * campaign driver. Baseline and protected runs are matched-pair (same
 * seed), the SimFlex-style methodology of Section 5.
 */

#ifndef TDC_CPU_IPC_CAMPAIGN_HH
#define TDC_CPU_IPC_CAMPAIGN_HH

#include <string>
#include <vector>

#include "cpu/cmp_batch.hh"
#include "reliability/campaign.hh"

namespace tdc
{

/** One IPC-loss figure panel: a machine swept over workloads x
 *  protections, each protected run paired with a same-seed baseline. */
struct IpcLossCampaignSpec
{
    CmpConfig machine;

    /** Workloads (rows). Empty = standardWorkloads(). */
    std::vector<WorkloadProfile> workloads;

    /** Protected configurations (columns) and their table headers. */
    std::vector<ProtectionConfig> protections;
    std::vector<std::string> columnHeaders;

    /** Cycles per run and the matched-pair seed. */
    uint64_t cycles = 150000;
    uint64_t seed = 42;

    /** Panel heading ("--- Figure 5(a) ---"); empty = table only. */
    std::string title;

    /** The four protection columns of Figure 5. */
    static IpcLossCampaignSpec figure5(const CmpConfig &machine,
                                       const std::string &title);

    /**
     * A custom panel from protection spec strings (see
     * ProtectionConfig::parse); column headers default to each
     * config's label(). Workload names filter standardWorkloads()
     * (empty = all); unknown names throw std::invalid_argument.
     */
    static IpcLossCampaignSpec fromProtectionSpecs(
        const CmpConfig &machine, const std::string &title,
        const std::vector<std::string> &protection_specs,
        const std::vector<std::string> &workload_names = {});
};

/**
 * Run the whole grid as one cmp_batch (each workload's baseline and
 * protections form one matched set, and the sets run in parallel),
 * then tabulate the relative IPC loss per cell plus a per-column
 * "Average" summary row. Bit-identical at any thread count: every run
 * equals its solo CmpSimulator run and the table reduction happens in
 * grid order.
 */
CampaignResult runIpcLossCampaign(const IpcLossCampaignSpec &spec);

} // namespace tdc

#endif // TDC_CPU_IPC_CAMPAIGN_HH
