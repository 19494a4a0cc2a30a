#include "reliability/campaign.hh"

#include "common/parallel.hh"

namespace tdc
{

Table
CampaignResult::toTable() const
{
    Table t(headers);
    for (const auto &row : rows)
        t.addRow(row);
    return t;
}

std::string
CampaignResult::render() const
{
    std::string out;
    if (!title.empty())
        out += title + "\n\n";
    out += toTable().render();
    return out;
}

CampaignResult
runCampaignGrid(const CampaignGrid &grid)
{
    const size_t nr = grid.rowLabels.size();
    const size_t nc = grid.colHeaders.size();

    // Flat cell sharding: each cell writes only its own slot of its
    // row, which already carries the row label.
    CampaignResult result;
    result.title = grid.title;
    result.headers.reserve(1 + nc);
    result.headers.push_back(grid.rowHeader);
    result.headers.insert(result.headers.end(), grid.colHeaders.begin(),
                          grid.colHeaders.end());
    result.rows.assign(nr, std::vector<std::string>(1 + nc));
    for (size_t r = 0; r < nr; ++r)
        result.rows[r][0] = grid.rowLabels[r];
    parallelFor(nr * nc, [&](size_t i) {
        result.rows[i / nc][1 + i % nc] = grid.cell(i / nc, i % nc);
    });
    return result;
}

} // namespace tdc
