#include "cpu/ipc_campaign.hh"

#include <cassert>
#include <stdexcept>

namespace tdc
{

IpcLossCampaignSpec
IpcLossCampaignSpec::figure5(const CmpConfig &machine,
                             const std::string &title)
{
    // Figure 5's protection axis as registry specs, with the paper's
    // column wording kept over the default label() headers.
    IpcLossCampaignSpec spec =
        fromProtectionSpecs(machine, title,
                            {"l1", "l1+steal", "l2", "l1+steal+l2"});
    spec.columnHeaders = {"L1 D-cache", "L1 + port stealing", "L2 cache",
                          "L1(steal) + L2"};
    return spec;
}

IpcLossCampaignSpec
IpcLossCampaignSpec::fromProtectionSpecs(
    const CmpConfig &machine, const std::string &title,
    const std::vector<std::string> &protection_specs,
    const std::vector<std::string> &workload_names)
{
    IpcLossCampaignSpec spec;
    spec.machine = machine;
    spec.title = title;
    for (const std::string &p : protection_specs) {
        spec.protections.push_back(ProtectionConfig::parse(p));
        spec.columnHeaders.push_back(spec.protections.back().label());
    }
    for (const std::string &name : workload_names) {
        bool found = false;
        for (const WorkloadProfile &w : standardWorkloads()) {
            if (w.name == name) {
                spec.workloads.push_back(w);
                found = true;
                break;
            }
        }
        if (!found)
            throw std::invalid_argument("unknown workload \"" + name +
                                        "\"");
    }
    return spec;
}

CampaignResult
runIpcLossCampaign(const IpcLossCampaignSpec &spec)
{
    assert(spec.protections.size() == spec.columnHeaders.size());
    const std::vector<WorkloadProfile> &workloads =
        spec.workloads.empty() ? standardWorkloads() : spec.workloads;
    const size_t np = spec.protections.size();
    const size_t stride = np + 1; // baseline + protected runs

    // One flat batch over the pool: per workload, the matched-pair
    // baseline followed by every protected configuration.
    std::vector<CmpRunSpec> runs;
    runs.reserve(workloads.size() * stride);
    for (const WorkloadProfile &w : workloads) {
        runs.push_back({spec.machine, w, ProtectionConfig::none(),
                        spec.seed});
        for (const ProtectionConfig &prot : spec.protections)
            runs.push_back({spec.machine, w, prot, spec.seed});
    }
    const std::vector<CmpSimResult> results = runCmpBatch(runs,
                                                          spec.cycles);

    // Relative IPC loss per cell, computed serially in grid order.
    std::vector<std::vector<double>> loss(workloads.size(),
                                          std::vector<double>(np));
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const double base = results[wi * stride].ipc();
        for (size_t pi = 0; pi < np; ++pi)
            loss[wi][pi] =
                (base - results[wi * stride + 1 + pi].ipc()) / base;
    }

    CampaignGrid grid;
    grid.title = spec.title;
    grid.rowHeader = "Workload";
    for (const WorkloadProfile &w : workloads)
        grid.rowLabels.push_back(w.name);
    grid.colHeaders = spec.columnHeaders;
    grid.cell = [&](size_t row, size_t col) {
        return Table::pct(loss[row][col]);
    };
    CampaignResult result = runCampaignGrid(grid);

    std::vector<std::string> avg{"Average"};
    for (size_t pi = 0; pi < np; ++pi) {
        double sum = 0.0;
        for (size_t wi = 0; wi < workloads.size(); ++wi)
            sum += loss[wi][pi];
        avg.push_back(Table::pct(sum / double(workloads.size())));
    }
    result.rows.push_back(std::move(avg));
    return result;
}

} // namespace tdc
