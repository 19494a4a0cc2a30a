/**
 * @file
 * Unified figure-campaign driver. Every figure benchmark in the study
 * is a grid — scheme x interleave degree x fault model x workload —
 * whose cells are either analytic model evaluations or Monte-Carlo
 * injection campaigns. This driver expresses such a figure
 * declaratively (axes + a pure cell evaluator) and executes it over
 * the parallelFor worker pool with counter-based seeding, so every
 * campaign table is bit-identical at any TDC_THREADS setting.
 */

#ifndef TDC_RELIABILITY_CAMPAIGN_HH
#define TDC_RELIABILITY_CAMPAIGN_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/table.hh"

namespace tdc
{

/**
 * A declarative figure grid: row labels x column headers, with a pure
 * cell evaluator. The evaluator must depend only on (row, col) — any
 * randomness must come from a counter-based stream derived from the
 * cell index — so the executed table is independent of thread count
 * and execution order.
 */
struct CampaignGrid
{
    /** Panel heading printed above the table ("--- Figure 2(b) ---").
     *  Empty = table only. */
    std::string title;

    /** Header of the label column ("Error footprint", "Workload"...). */
    std::string rowHeader;

    std::vector<std::string> rowLabels;
    std::vector<std::string> colHeaders;

    /**
     * Formatted value of cell (row, col). Injection grids return
     * cachedInjectAndRecover(...).verdict() (or .summary()), so the
     * memoized numeric outcome never includes the formatting.
     */
    std::function<std::string(size_t row, size_t col)> cell;
};

/** An executed campaign: its title, headers and rendered rows. */
struct CampaignResult
{
    std::string title;
    std::vector<std::string> headers; ///< rowHeader + colHeaders
    /** Label + cells per grid row; callers may append summary rows. */
    std::vector<std::vector<std::string>> rows;

    /** Assemble the tdc::Table (header + rows). */
    Table toTable() const;

    /** Title (when present), blank line, then the table. */
    std::string render() const;
};

/** Execute the grid: every cell, assembled in row-major order. */
CampaignResult runCampaignGrid(const CampaignGrid &grid);

} // namespace tdc

#endif // TDC_RELIABILITY_CAMPAIGN_HH
