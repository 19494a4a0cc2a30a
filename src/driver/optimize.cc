#include "driver/optimize.hh"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hh"
#include "scheme/scheme.hh"
#include "scheme/spec_gen.hh"

namespace tdc
{

namespace
{

/** Reference + geometry of the normalized-overhead objectives: the
 *  paper's Figure 7(a) baseline (SECDED+Intv2 on the 64 kB L1). */
const char *const kCostReference = "conv:secded/i2";

/** Default fault axis: one event shape per failure class the paper
 *  distinguishes (single upset, row burst, column burst, cluster). */
const char *const kDefaultFaults[] = {"single", "row:32", "col:8",
                                      "32x32"};

} // namespace

OptimizeObjective
parseObjective(const std::string &token)
{
    if (token == "storage")
        return OptimizeObjective::kStorage;
    if (token == "area")
        return OptimizeObjective::kArea;
    if (token == "latency")
        return OptimizeObjective::kLatency;
    if (token == "power")
        return OptimizeObjective::kPower;
    throw std::invalid_argument(
        "--objective expects storage|area|latency|power, got \"" + token +
        "\"");
}

const char *
objectiveName(OptimizeObjective objective)
{
    switch (objective) {
      case OptimizeObjective::kStorage: return "storage";
      case OptimizeObjective::kArea: return "area";
      case OptimizeObjective::kLatency: return "latency";
      default: return "power";
    }
}

bool
dominates(const DesignPoint &a, const DesignPoint &b)
{
    return a.coverage >= b.coverage && a.overhead <= b.overhead &&
           (a.coverage > b.coverage || a.overhead < b.overhead);
}

std::vector<DesignPoint>
evaluateDesignSpace(const OptimizeRequest &req)
{
    const std::vector<std::string> specs =
        expandSpecPatterns(req.patterns);

    std::vector<std::string> fault_specs = req.faults;
    if (fault_specs.empty())
        fault_specs.assign(std::begin(kDefaultFaults),
                           std::end(kDefaultFaults));
    std::vector<FaultModel> faults;
    faults.reserve(fault_specs.size());
    for (const std::string &f : fault_specs)
        faults.push_back(parseFaultModel(f));

    std::vector<DesignPoint> points;
    points.reserve(specs.size());
    for (const std::string &spec : specs) {
        const SchemePtr scheme = parseScheme(spec);
        DesignPoint p;
        p.spec = scheme->spec();
        p.name = scheme->name();

        // Coverage: every (spec, fault) cell is its own campaign,
        // seeded shardSeed(seed, f). A custom --scheme x --fault grid
        // seeds cell (row, col) shardSeed(seed, row * columns + col),
        // so the two share cache entries only with a one-scheme grid
        // over the same faults, trials and seed. The figure grids'
        // fixed seeds and trial counts never match.
        int corrected = 0, total = 0;
        for (size_t f = 0; f < faults.size(); ++f) {
            const InjectionOutcome o = cachedInjectAndRecover(
                *scheme, faults[f], req.trials,
                shardSeed(req.seed, f));
            corrected += o.corrected;
            total += o.trials;
        }
        p.coverage = total ? double(corrected) / double(total) : 0.0;

        if (req.objective == OptimizeObjective::kStorage) {
            p.overhead = scheme->storageOverhead();
        } else {
            if (!scheme->hasCostModel())
                throw std::invalid_argument(
                    "--objective " +
                    std::string(objectiveName(req.objective)) +
                    " needs a VLSI cost model, but scheme \"" + spec +
                    "\" has none (use --objective storage)");
            const NormalizedOverhead n = cachedNormalizedCost(
                *scheme, kCostReference, CacheGeometry::l1());
            p.overhead = req.objective == OptimizeObjective::kArea
                             ? n.area
                             : req.objective == OptimizeObjective::kLatency
                                   ? n.latency
                                   : n.power;
        }
        points.push_back(std::move(p));
    }

    for (DesignPoint &p : points) {
        p.dominatedBy = 0;
        for (const DesignPoint &q : points)
            if (dominates(q, p))
                ++p.dominatedBy;
    }
    return points;
}

void
runOptimize(const OptimizeRequest &req, RunContext &ctx)
{
    const std::vector<DesignPoint> points = evaluateDesignSpace(req);

    std::vector<const DesignPoint *> frontier;
    for (const DesignPoint &p : points)
        if (p.onFrontier())
            frontier.push_back(&p);
    std::sort(frontier.begin(), frontier.end(),
              [](const DesignPoint *a, const DesignPoint *b) {
                  if (a->overhead != b->overhead)
                      return a->overhead < b->overhead;
                  if (a->coverage != b->coverage)
                      return a->coverage < b->coverage;
                  return a->spec < b->spec;
              });

    std::vector<std::string> fault_axis = req.faults;
    if (fault_axis.empty())
        fault_axis.assign(std::begin(kDefaultFaults),
                          std::end(kDefaultFaults));
    std::string fault_label;
    for (const std::string &f : fault_axis)
        fault_label += (fault_label.empty() ? "" : ",") + f;

    const std::string objective = objectiveName(req.objective);
    ctx.prosef("optimize: %zu design points, fault axis %s, %d trials "
               "per cell, objective %s\n"
               "Pareto frontier: %zu points (%zu dominated)\n\n",
               points.size(), fault_label.c_str(), req.trials,
               objective.c_str(), frontier.size(),
               points.size() - frontier.size());

    Table front({"Scheme", "Spec", "Coverage",
                 "Overhead (" + objective + ")"});
    for (const DesignPoint *p : frontier)
        front.addRow({p->name, p->spec, Table::num(p->coverage, 6),
                      Table::num(p->overhead, 6)});
    ctx.table(front, "Pareto frontier: coverage vs " + objective +
                         " overhead");

    Table all({"Spec", "Coverage", "Overhead (" + objective + ")",
               "Frontier", "Dominated by"});
    for (const DesignPoint &p : points)
        all.addRow({p.spec, Table::num(p.coverage, 6),
                    Table::num(p.overhead, 6),
                    p.onFrontier() ? "yes" : "no",
                    std::to_string(p.dominatedBy)});
    ctx.table(all, "Evaluated design points");
}

} // namespace tdc
