#include "scheme/figure_campaigns.hh"

#include <stdexcept>

#include "common/parallel.hh"
#include "common/spec_reader.hh"
#include "core/twod_array.hh"
#include "ecc/cost_model.hh"
#include "reliability/soft_error_model.hh"
#include "reliability/yield_model.hh"
#include "vlsi/sram_model.hh"
#include "vlsi/tech.hh"

namespace tdc
{

namespace
{

/**
 * Cap on a mix's expected arrivals per trial mission. Every trial
 * materializes its whole event timeline, so an unbounded rate (or an
 * infinite one, whose exponential gaps are all 0) would grow it until
 * memory runs out. jaguar*10000 over 5 years expects about 29.
 */
constexpr double kMaxEventsPerMission = 1e5;

/** Extra read energy of a coded array vs. a plain one (Figure 1(c)). */
double
extraEnergyPerRead(CodeKind kind, size_t capacity_bytes, size_t word_bits,
                   size_t banks)
{
    const CodingCost cost = codingCost(kind, word_bits);
    const SramMetrics plain =
        cacheArrayMetrics(capacity_bytes, word_bits, 0, 2, banks,
                          SramObjective::kBalanced);
    const SramMetrics coded =
        cacheArrayMetrics(capacity_bytes, word_bits, cost.checkBits, 2,
                          banks, SramObjective::kBalanced);
    const double coding_logic =
        defaultTech().ePerGate * double(cost.detectGates);
    return (coded.readEnergy + coding_logic) / plain.readEnergy - 1.0;
}

std::vector<std::string>
figure1RowLabels()
{
    std::vector<std::string> labels;
    for (CodeKind kind : kFigure1Kinds)
        labels.push_back(codeKindName(kind));
    return labels;
}

/** Parse every spec in @p specs through the registry. */
std::vector<SchemePtr>
parseAll(const std::vector<std::string> &specs)
{
    std::vector<SchemePtr> schemes;
    schemes.reserve(specs.size());
    for (const std::string &spec : specs)
        schemes.push_back(parseScheme(spec));
    return schemes;
}

/** Parse every fault spec in @p specs. */
std::vector<FaultModel>
parseFaults(const std::vector<std::string> &specs)
{
    std::vector<FaultModel> faults;
    faults.reserve(specs.size());
    for (const std::string &spec : specs)
        faults.push_back(parseFaultModel(spec));
    return faults;
}

/** How an injection cell renders its outcome. */
enum class CellText
{
    kVerdict, ///< InjectionOutcome::verdict()
    kSummary, ///< InjectionOutcome::summary()
};

/**
 * Run an injection grid: cell (row, col) injects @p faults[row] into
 * @p schemes[col]. @p grid arrives with its title, headers and row
 * labels. Each cell is its own campaign seeded shardSeed(seed,
 * row * columns + col), so the grid is a pure function of (trials,
 * seed) and therefore memoizable in the result cache.
 */
CampaignResult
runInjectionGrid(CampaignGrid grid, std::vector<SchemePtr> schemes,
                 std::vector<FaultModel> faults, int trials, uint64_t seed,
                 CellText text)
{
    const size_t nc = schemes.size();
    grid.cell = [=, schemes = std::move(schemes),
                 faults = std::move(faults)](size_t row, size_t col) {
        const InjectionOutcome o = cachedInjectAndRecover(
            *schemes[col], faults[row], trials,
            shardSeed(seed, row * nc + col));
        return text == CellText::kVerdict ? o.verdict() : o.summary();
    };
    return runCampaignGrid(grid);
}

} // namespace

CampaignResult
figure1StorageCampaign()
{
    CampaignGrid grid;
    grid.rowHeader = "Code";
    grid.rowLabels = figure1RowLabels();
    grid.colHeaders = {"HD", "64b word", "256b word"};
    grid.parallelCells = false;
    grid.cell = [](size_t row, size_t col) -> std::string {
        const CodeKind kind = kFigure1Kinds[row];
        switch (col) {
          case 0:
            return std::to_string(makeCode(kind, 64)->minDistance());
          case 1:
            return Table::pct(codingCost(kind, 64).storageOverhead);
          default:
            return Table::pct(codingCost(kind, 256).storageOverhead);
        }
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure1EnergyCampaign()
{
    CampaignGrid grid;
    grid.rowHeader = "Code";
    grid.rowLabels = figure1RowLabels();
    grid.colHeaders = {"64b word / 64kB array", "256b word / 4MB array"};
    grid.parallelCells = false;
    grid.cell = [](size_t row, size_t col) {
        const CodeKind kind = kFigure1Kinds[row];
        return col == 0
                   ? Table::pct(extraEnergyPerRead(kind, 64 * 1024, 64, 1))
                   : Table::pct(
                         extraEnergyPerRead(kind, 4 * 1024 * 1024, 256, 8));
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure2EnergyCampaign(const std::string &title, size_t capacity_bytes,
                      size_t word_bits, size_t banks)
{
    static const SramObjective kObjectives[] = {
        SramObjective::kDelay,
        SramObjective::kDelayArea,
        SramObjective::kBalanced,
        SramObjective::kPower,
    };
    const size_t check = checkBitsOf(CodeKind::kSecDed, word_bits);
    const double base = cacheArrayMetrics(capacity_bytes, word_bits, check,
                                          1, banks, SramObjective::kDelay)
                            .readEnergy;

    CampaignGrid grid;
    grid.title = title;
    grid.rowHeader = "Degree";
    for (size_t degree = 1; degree <= 16; degree *= 2)
        grid.rowLabels.push_back(std::to_string(degree) + ":1");
    grid.colHeaders = {"Delay-opt", "Delay+Area-opt", "Balanced",
                       "Power-opt"};
    grid.parallelCells = false;
    grid.cell = [=](size_t row, size_t col) {
        const size_t degree = size_t(1) << row;
        const SramMetrics m =
            cacheArrayMetrics(capacity_bytes, word_bits, check, degree,
                              banks, kObjectives[col]);
        return Table::num(m.readEnergy / base, 2);
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure3OverheadCampaign()
{
    // The scheme axis by spec string; labels derive from the scheme
    // names except the 2D row, which Figure 3 spells with its vertical
    // code ("2D EDC8+Intv4/EDC32").
    const std::vector<SchemePtr> schemes =
        parseAll({"conv:secded/i4", "conv:oecned/i4", "2d:edc8/i4+vp32"});

    CampaignGrid grid;
    grid.rowHeader = "Scheme";
    grid.rowLabels = {"(a) " + schemes[0]->name(),
                      "(b) " + schemes[1]->name(),
                      "(c) 2D EDC8+Intv4/EDC32"};
    grid.colHeaders = {"Storage overhead", "Guaranteed coverage"};
    grid.parallelCells = false;
    grid.cell = [schemes](size_t row, size_t col) -> std::string {
        if (col == 1) {
            static const char *coverage[] = {"4-bit row bursts",
                                             "32-bit row bursts",
                                             "32x32-bit clusters"};
            return coverage[row];
        }
        return Table::pct(schemes[row]->storageOverhead());
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure3InjectionCampaign(int trials, uint64_t seed)
{
    // Scheme axis: the two conventional baselines and the two 2D
    // variants (EDC8 horizontal; SECDED horizontal for full columns).
    std::vector<SchemePtr> schemes = parseAll({
        "conv:secded/i4",
        "conv:oecned/i4",
        "2d:edc8/i4+vp32",
        "2d:secded/i4+vp32",
    });

    // Fault-model axis: the paper's footprint sweep.
    CampaignGrid grid;
    grid.rowHeader = "Error footprint";
    grid.rowLabels = {
        "1x1",  "4x1",  "8x1",   "32x1",
        "4x4",  "8x8",  "16x16", "32x32",
        "1x32", "1x256",
    };
    // Figure 3 abbreviates the 2D columns with their vertical code
    // instead of the schemes' canonical "2D(...)+vp" names.
    grid.colHeaders = {schemes[0]->name(), schemes[1]->name(),
                       "2D (EDC8, EDC32)", "2D (SECDED, EDC32)"};
    std::vector<FaultModel> faults = parseFaults(grid.rowLabels);
    return runInjectionGrid(std::move(grid), std::move(schemes),
                            std::move(faults), trials, seed,
                            CellText::kVerdict);
}

CampaignResult
figure7Campaign(const std::string &title, const CacheGeometry &geom,
                const std::vector<std::string> &scheme_specs)
{
    const std::vector<SchemePtr> schemes = parseAll(scheme_specs);

    CampaignGrid grid;
    grid.title = title;
    grid.rowHeader = "Scheme";
    for (const SchemePtr &s : schemes)
        grid.rowLabels.push_back(s->name());
    grid.colHeaders = {"Code area", "Coding latency", "Dynamic power"};
    grid.parallelCells = false;
    grid.cell = [=](size_t row, size_t col) {
        // The normalized triple is dominated by the SRAM-optimizer
        // search inside costSpec(), so it is memoized as one 3-wide
        // record per (scheme, reference, geometry) in the result cache.
        const NormalizedOverhead n =
            cachedNormalizedCost(*schemes[row], "conv:secded/i2", geom);
        const double v = col == 0 ? n.area : col == 1 ? n.latency : n.power;
        return Table::pct(v, 0);
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure8YieldCampaign()
{
    static const double kFailingCells[] = {0.0,    400.0,  800.0, 1600.0,
                                           2400.0, 3200.0, 4000.0};
    CampaignGrid grid;
    grid.rowHeader = "Failing cells";
    for (double f : kFailingCells)
        grid.rowLabels.push_back(Table::num(f, 0));
    grid.colHeaders = {"Spare_128", "ECC only", "ECC + Spare_16",
                       "ECC + Spare_32"};
    grid.parallelCells = false;
    grid.cell = [](size_t row, size_t col) {
        const YieldModel ym(YieldParams::l2Cache16MB());
        const double f = kFailingCells[row];
        switch (col) {
          case 0: return Table::pct(ym.yieldSpareOnly(f, 128));
          case 1: return Table::pct(ym.yieldEccOnly(f));
          case 2: return Table::pct(ym.yieldEccPlusSpares(f, 16));
          default: return Table::pct(ym.yieldEccPlusSpares(f, 32));
        }
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure8YieldMonteCarloCampaign(int trials, uint64_t seed)
{
    static const size_t kFaults[] = {200, 400, 800};
    YieldParams small;
    small.words = 65536;
    small.wordBits = 72;
    const YieldModel model(small);

    CampaignGrid grid;
    grid.rowHeader = "Failing cells";
    for (size_t f : kFaults)
        grid.rowLabels.push_back(std::to_string(f));
    grid.colHeaders = {"ECC-only (analytic)", "ECC-only (Monte Carlo)"};
    grid.cell = [=, &model](size_t row, size_t col) {
        const size_t f = kFaults[row];
        if (col == 0)
            return Table::pct(model.yieldEccOnly(double(f)));
        // The Monte-Carlo yield sweep is pure in (params, faults,
        // spares, trials, seed), so its fraction is memoizable.
        const std::string key =
            "fig8yield|words=" + std::to_string(small.words) +
            "|bits=" + std::to_string(small.wordBits) +
            "|faults=" + std::to_string(f) + "|spares=16|trials=" +
            std::to_string(trials) +
            "|seed=" + std::to_string(shardSeed(seed, row));
        const std::vector<double> v = resultCache().reals(key, 1, [&] {
            return std::vector<double>{
                model.monteCarloParallel(f, 16, trials,
                                         shardSeed(seed, row))
                    .eccOnly};
        });
        return Table::pct(v[0]);
    };
    return runCampaignGrid(grid);
}

CampaignResult
figure8SoftErrorCampaign()
{
    static const double kHer[] = {0.000005, 0.00001, 0.00005};

    CampaignGrid grid;
    grid.rowHeader = "Years";
    for (double years = 0.0; years <= 5.0; years += 1.0)
        grid.rowLabels.push_back(Table::num(years, 0));
    grid.colHeaders = {"With 2D coding", "No 2D, HER=0.0005%",
                       "No 2D, HER=0.001%", "No 2D, HER=0.005%"};
    grid.parallelCells = false;
    grid.cell = [](size_t row, size_t col) {
        const double years = double(row);
        if (col == 0) {
            const SoftErrorModel m(ReliabilityParams::figure8b(kHer[0]));
            return Table::pct(m.successProbabilityWith2D(years));
        }
        const SoftErrorModel m(ReliabilityParams::figure8b(kHer[col - 1]));
        return Table::pct(m.successProbability(years));
    };
    return runCampaignGrid(grid);
}

CampaignResult
relatedWorkCampaign(int trials, uint64_t seed)
{
    CampaignGrid grid;
    grid.rowHeader = "Error footprint";
    grid.rowLabels = {"1x1", "3x1", "1x3", "2x2", "8x8", "32x32"};
    grid.colHeaders = {"HV product code", "2D (EDC8+Intv4, EDC32)"};
    std::vector<FaultModel> faults = parseFaults(grid.rowLabels);
    return runInjectionGrid(std::move(grid),
                            parseAll({"prod:256x256", "2d:edc8/i4+vp32"}),
                            std::move(faults), trials, seed,
                            CellText::kVerdict);
}

namespace
{

/** The chipkill figure's comparison set: one scheme per protection
 *  class, on small (64-row) geometries so cells stay quick. */
const std::vector<std::string> kChipkillFigureSchemes = {
    "conv:secded/i4/r64",
    "2d:edc8/i4+vp32/r64",
    "prod:64x64",
    "dram:chipkill/x4",
    "dram:iecc+chipkill/x8",
};

} // namespace

CampaignResult
chipkillOverheadCampaign()
{
    const std::vector<SchemePtr> schemes =
        parseAll(kChipkillFigureSchemes);

    CampaignGrid grid;
    grid.rowHeader = "Scheme";
    for (const SchemePtr &s : schemes)
        grid.rowLabels.push_back(s->name());
    grid.colHeaders = {"Storage overhead", "Guaranteed coverage"};
    grid.parallelCells = false;
    grid.cell = [schemes](size_t row, size_t col) -> std::string {
        if (col == 1) {
            static const char *coverage[] = {
                "4-bit row bursts",
                "32x32-bit clusters",
                "any single cell + HV-flagged patterns",
                "any single chip (SSC), double-chip detect",
                "1 bit per chip + any single chip (erasure)",
            };
            return coverage[row];
        }
        return Table::pct(schemes[row]->storageOverhead());
    };
    return runCampaignGrid(grid);
}

CampaignResult
chipkillInjectionCampaign(int trials, uint64_t seed)
{
    std::vector<SchemePtr> schemes = parseAll(kChipkillFigureSchemes);

    // Fault axis: the SRAM footprints the paper sweeps plus the
    // device-derived DRAM shapes. On bit arrays (symbol width 1) a
    // chip kill degenerates to a full column, so every cell is
    // well-defined across the whole comparison set.
    CampaignGrid grid;
    grid.title = "Chipkill comparison: " + std::to_string(trials) +
                 " events/cell, seed " + std::to_string(seed);
    grid.rowHeader = "Fault";
    grid.rowLabels = {
        "single", "row:4", "8x8", "fullcol",
        "chip:any", "hammer:3@0.5", "senseamp:16",
    };
    for (const SchemePtr &scheme : schemes)
        grid.colHeaders.push_back(scheme->name());
    std::vector<FaultModel> faults = parseFaults(grid.rowLabels);
    return runInjectionGrid(std::move(grid), std::move(schemes),
                            std::move(faults), trials, seed,
                            CellText::kVerdict);
}

CampaignResult
customInjectionCampaign(const std::vector<std::string> &scheme_specs,
                        const std::vector<std::string> &fault_specs,
                        int trials, uint64_t seed)
{
    std::vector<SchemePtr> schemes = parseAll(scheme_specs);
    std::vector<FaultModel> faults = parseFaults(fault_specs);

    CampaignGrid grid;
    grid.title = "Injection campaign: " + std::to_string(trials) +
                 " events/cell, seed " + std::to_string(seed);
    grid.rowHeader = "Fault";
    for (const FaultModel &fault : faults)
        grid.rowLabels.push_back(fault.describe());
    for (const SchemePtr &scheme : schemes)
        grid.colHeaders.push_back(scheme->name());
    return runInjectionGrid(std::move(grid), std::move(schemes),
                            std::move(faults), trials, seed,
                            CellText::kSummary);
}

// --- Lifetime/FIT grids ---------------------------------------------

namespace
{

/** The lifetime figure's device set: small (64-row) geometries so the
 *  per-trial mission replay stays quick. */
const std::vector<std::string> kLifetimeFigureSchemes = {
    "conv:secded/i4/r64",
    "wt:edc8/i4/r64",
    "2d:edc8/i4+vp32/r64",
    "prod:64x64",
};

/** Row label of one lifetime configuration, e.g.
 *  "jaguar*10000 T=168h s=2" (T=event for per-event checking). */
std::string
lifetimeRowLabel(const FitMix &mix, double scrub_hours, int spares)
{
    std::string label = mix.spec();
    label += scrub_hours <= 0.0 ? " T=event"
                                : " T=" + exactDouble(scrub_hours) + "h";
    label += " s=" + std::to_string(spares);
    return label;
}

} // namespace

CampaignResult
customLifetimeCampaign(const std::vector<std::string> &scheme_specs,
                       const std::vector<std::string> &mix_specs,
                       const std::vector<double> &scrub_interval_hours,
                       const std::vector<int> &spare_rows,
                       double mission_hours, int trials, uint64_t seed)
{
    const std::vector<SchemePtr> schemes = parseAll(scheme_specs);
    std::vector<FitMix> mixes;
    mixes.reserve(mix_specs.size());
    for (const std::string &spec : mix_specs) {
        mixes.push_back(parseFitMix(spec));
        const double expected = mixes.back().eventsPerHour() * mission_hours;
        if (!(expected <= kMaxEventsPerMission))
            throw std::invalid_argument(
                "fit-mix spec \"" + spec + "\": expects " +
                Table::num(expected, 0) + " events per " +
                exactDouble(mission_hours) + "h mission (at most " +
                Table::num(kMaxEventsPerMission, 0) + ")");
    }

    // Row axis: every (mix, scrub, spares) combination, in that
    // nesting order.
    struct RowConfig
    {
        size_t mix;
        double scrub;
        int spares;
    };
    std::vector<RowConfig> rows;
    for (size_t m = 0; m < mixes.size(); ++m)
        for (double scrub : scrub_interval_hours)
            for (int spares : spare_rows)
                rows.push_back({m, scrub, spares});

    CampaignGrid grid;
    grid.title = "Lifetime campaign: " + exactDouble(mission_hours) +
                 "h missions, " + std::to_string(trials) +
                 " trials/cell, seed " + std::to_string(seed);
    grid.rowHeader = "Mix / scrub / spares";
    for (const RowConfig &rc : rows)
        grid.rowLabels.push_back(
            lifetimeRowLabel(mixes[rc.mix], rc.scrub, rc.spares));
    for (const SchemePtr &scheme : schemes)
        grid.colHeaders.push_back(scheme->name());
    grid.cell = [=](size_t row, size_t col) {
        const RowConfig &rc = rows[row];
        LifetimeParams params;
        params.mix = mixes[rc.mix];
        params.missionHours = mission_hours;
        params.scrubIntervalHours = rc.scrub;
        params.spareRows = rc.spares;
        params.trials = trials;
        // Seed by column only: every row of a column replays the same
        // per-trial event timelines, so the (mix, scrub, spares) sweep
        // is a paired comparison instead of fresh Monte-Carlo noise —
        // and the MTTF monotonicity guarantees become visible in the
        // rendered table.
        params.seed = shardSeed(seed, col);
        return cachedSchemeLifetime(*schemes[col], params).summary();
    };
    return runCampaignGrid(grid);
}

CampaignResult
lifetimeScrubCampaign(int trials, uint64_t seed)
{
    CampaignResult res = customLifetimeCampaign(
        kLifetimeFigureSchemes, {"jaguar*10000"},
        {0.0, 24.0, 24.0 * 7, 24.0 * 30}, {0}, 5.0 * 8760.0, trials, seed);
    res.title = "Lifetime vs scrub interval: jaguar*10000 mix, "
                "5-year missions, " +
                std::to_string(trials) + " trials/cell";
    return res;
}

CampaignResult
lifetimeSpareCampaign(int trials, uint64_t seed)
{
    CampaignResult res = customLifetimeCampaign(
        kLifetimeFigureSchemes, {"jaguar*10000"}, {24.0 * 7}, {0, 2, 8},
        5.0 * 8760.0, trials, seed);
    res.title = "Lifetime vs spare-row budget: jaguar*10000 mix, "
                "weekly scrub, " +
                std::to_string(trials) + " trials/cell";
    return res;
}

} // namespace tdc
