/**
 * @file
 * Declarative definitions of the paper's figure campaigns, one builder
 * per panel, all executed through the unified campaign driver
 * (reliability/campaign.hh) with every protection-scheme axis named by
 * a spec string through the scheme registry (scheme/scheme.hh). The
 * tdc_run driver runs these builders, and the golden-pin tests execute
 * the same builders — so the printed tables and the pinned tables can
 * never drift apart.
 */

#ifndef TDC_SCHEME_FIGURE_CAMPAIGNS_HH
#define TDC_SCHEME_FIGURE_CAMPAIGNS_HH

#include "reliability/campaign.hh"
#include "scheme/scheme.hh"

namespace tdc
{

/** Figure 1(b): extra check-bit storage for 64b and 256b words. */
CampaignResult figure1StorageCampaign();

/** Figure 1(c): extra dynamic energy per read vs. code strength. */
CampaignResult figure1EnergyCampaign();

/**
 * Figure 2(b)/(c): normalized read energy vs. physical interleave
 * degree under each optimizer objective, for one cache geometry.
 */
CampaignResult figure2EnergyCampaign(const std::string &title,
                                     size_t capacity_bytes,
                                     size_t word_bits, size_t banks);

/** Figure 3 header table: storage overhead + guaranteed coverage. */
CampaignResult figure3OverheadCampaign();

/**
 * Figure 3 injection grid: error footprints x protection schemes on a
 * 256x256 data array, verdicts by Monte-Carlo fault injection.
 */
CampaignResult figure3InjectionCampaign(int trials = 40,
                                        uint64_t seed = 2026);

/**
 * Figure 7(a)/(b): code area / latency / power of the schemes named
 * by @p scheme_specs (registry spec strings) with the same 32x32
 * coverage target, normalized to SECDED+Intv2 ("conv:secded/i2").
 */
CampaignResult figure7Campaign(const std::string &title,
                               const CacheGeometry &geom,
                               const std::vector<std::string> &scheme_specs);

/** Figure 8(a): 16MB L2 yield vs. failing cells (analytic). */
CampaignResult figure8YieldCampaign();

/** Figure 8(a) cross-check: Monte Carlo vs. analytic ECC-only yield. */
CampaignResult figure8YieldMonteCarloCampaign(int trials = 300,
                                              uint64_t seed = 99);

/** Figure 8(b): P(all soft errors correctable) over operating years. */
CampaignResult figure8SoftErrorCampaign();

/**
 * Related-work grid (Section 6): the HV product code vs. the paper's
 * 2D coding under the same injected footprints.
 */
CampaignResult relatedWorkCampaign(int trials = 50, uint64_t seed = 60606);

/**
 * Chipkill figure, header table: storage overhead + guaranteed
 * coverage for the cross-family comparison set (interleaved SECDED,
 * the paper's 2D coding, the Tanner product code, chipkill/DDC and
 * IECC+chipkill).
 */
CampaignResult chipkillOverheadCampaign();

/**
 * Chipkill figure, injection grid: SRAM-shaped and device-derived
 * fault footprints (single / bursts / clusters / chip kill /
 * row-hammer / sense-amp) crossed with the same comparison set,
 * verdicts by Monte-Carlo injection through cachedInjectAndRecover.
 */
CampaignResult chipkillInjectionCampaign(int trials = 50,
                                         uint64_t seed = 10107);

/**
 * A fully custom injection grid: every fault (rows) crossed with
 * every scheme spec (columns), @p trials Monte-Carlo events per cell,
 * each cell seeded with shardSeed(seed, cell) — the tdc_run
 * "--scheme x --fault y" scenario executor. Cells render as
 * InjectionOutcome::summary().
 */
CampaignResult customInjectionCampaign(
    const std::vector<std::string> &scheme_specs,
    const std::vector<std::string> &fault_specs, int trials,
    uint64_t seed);

/**
 * The lifetime figure, scrub panel: MTTF/FIT per scheme (columns) over
 * a scrub-interval sweep (rows: per-event, daily, weekly, monthly)
 * under the accelerated Jaguar mix ("jaguar*10000") on small (64-row)
 * device geometries, 5-year missions. Cells evaluate through
 * cachedSchemeLifetime, so the numeric results replay from the result
 * cache like every other campaign cell.
 */
CampaignResult lifetimeScrubCampaign(int trials = 60, uint64_t seed = 7777);

/**
 * The lifetime figure, repair panel: the same schemes under weekly
 * scrubbing with a growing spare-row budget (rows: 0/2/8 spares).
 */
CampaignResult lifetimeSpareCampaign(int trials = 60, uint64_t seed = 7777);

/**
 * Fully custom lifetime grid (tdc_run --lifetime): rows = every
 * (fit-mix, scrub-interval, spare-budget) combination, columns =
 * scheme specs, each cell one cachedSchemeLifetime evaluation seeded
 * with shardSeed(seed, column) — rows of one column replay identical
 * event timelines, so sweeps read as paired comparisons. Malformed
 * mix specs, and mixes expecting more than 1e5 events per mission,
 * throw std::invalid_argument quoting the offending token.
 */
CampaignResult customLifetimeCampaign(
    const std::vector<std::string> &scheme_specs,
    const std::vector<std::string> &mix_specs,
    const std::vector<double> &scrub_interval_hours,
    const std::vector<int> &spare_rows, double mission_hours, int trials,
    uint64_t seed);

} // namespace tdc

#endif // TDC_SCHEME_FIGURE_CAMPAIGNS_HH
