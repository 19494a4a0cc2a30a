/**
 * @file
 * Helper binary of the perfbench benchmark (run.py drives it):
 *
 *   perfbench_probe exec <usage-file> <program> [args...]
 *       Run a program and write "wall_s user_s sys_s maxrss_kb status"
 *       for it to <usage-file>. The max RSS is taken from wait4() in
 *       this small parent: a child forked straight from the Python
 *       driver would inherit the driver's resident-size high-water mark.
 *
 *   perfbench_probe gen <request-spec> <seed> <trace-path>
 *       Generate a --serve request stream (buildRequests) over the
 *       address space of tdc_run's default --serve service and write it
 *       as a binary trace (writeTrace).
 *
 *   perfbench_probe trace <workload> <seed> <ops-file> <work-dir>
 *                         <out-json> [smoke]
 *       The traced run. First the op phase: every tdc_run op of the
 *       workload runs in process through tdcRun() under a span, with the
 *       memory cache tier cleared before each op like a fresh process.
 *       Then the layer phase: the benchmark calls each module's public
 *       functions with the workload's inputs under one span per call or
 *       per batch of calls. Spans and counters stay in memory and are
 *       written to <out-json> at the end; run.py turns them into the
 *       per-layer metrics (self time = span time minus child spans).
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "array/fault.hh"
#include "array/interleave.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "cpu/cmp_batch.hh"
#include "cpu/ipc_campaign.hh"
#include "driver/optimize.hh"
#include "driver/tdc_run.hh"
#include "ecc/code_factory.hh"
#include "ecc/reed_solomon.hh"
#include "reliability/result_cache.hh"
#include "scheme/figure_campaigns.hh"
#include "scheme/scheme.hh"
#include "scheme/spec_gen.hh"
#include "service/cache_service.hh"
#include "service/request.hh"
#include "service/request_gen.hh"
#include "workload/instruction_stream.hh"

namespace
{

using namespace tdc;
using Clock = std::chrono::steady_clock;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// --- Spans and counters ---------------------------------------------

/** In-memory span tree plus named counters, written once at the end. */
class Tracer
{
  public:
    int
    open(std::string name)
    {
        spans_.push_back({parent(), std::move(name), nowNs(), 0});
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[size_t(id)].end = nowNs();
        stack_.pop_back();
    }

    /** Record an already-timed span as a child of the open span. */
    void
    add(std::string name, int64_t start, int64_t end)
    {
        spans_.push_back({parent(), std::move(name), start, end});
    }

    void count(const std::string &name, double v) { counts_[name] += v; }

    void
    op(const std::string &name, int exit_code)
    {
        ops_.push_back({name, exit_code});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"spans\": [";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "[" << s.parent << ", \""
                << s.name << "\", " << s.start << ", " << s.end << "]";
        }
        out << "],\n\"counts\": {";
        size_t i = 0;
        for (const auto &[name, value] : counts_) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", value);
            out << (i++ ? ",\n" : "\n") << "\"" << name << "\": " << buf;
        }
        out << "},\n\"ops\": [";
        for (size_t j = 0; j < ops_.size(); ++j)
            out << (j ? ", " : "") << "[\"" << ops_[j].first << "\", "
                << ops_[j].second << "]";
        out << "]}\n";
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    struct Span
    {
        int parent;
        std::string name;
        int64_t start;
        int64_t end;
    };

    int parent() const { return stack_.empty() ? -1 : stack_.back(); }

    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
    std::vector<std::pair<std::string, int>> ops_;
};

Tracer g_trace;

/** Scoped span on g_trace. */
class Span
{
  public:
    explicit Span(std::string name) : id_(g_trace.open(std::move(name))) {}
    ~Span() { g_trace.close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int id_;
};

void
count(const std::string &name, double v)
{
    g_trace.count(name, v);
}

// --- Workload description ---------------------------------------------

/** Which workload's inputs the layer phase replays. */
struct Plan
{
    bool ipc = false;
    bool inject = false;
    bool serve = false;
    bool smoke = false; ///< shortened inputs for the benchmark's tests
    uint64_t seed = 1;
};

/** The --serve service tdc_run builds from its default flags. */
ServiceConfig
defaultServiceConfig(uint64_t seed)
{
    ServiceConfig cfg;
    cfg.bank = parseTwoDimConfig("2d:edc8/i4+vp32");
    cfg.shards = 4;
    cfg.banksPerShard = 4;
    cfg.seed = seed;
    return cfg;
}

BitVector
randomWord(Rng &rng, size_t bits)
{
    BitVector w(bits);
    for (size_t pos = 0; pos < bits; pos += 64)
        w.setBits(pos, rng.next(), std::min<size_t>(64, bits - pos));
    return w;
}

// --- Op phase ---------------------------------------------------------

struct Op
{
    std::string name;
    std::vector<std::string> args;
};

/** One op per line: name, then its tdc_run arguments, tab-separated. */
std::vector<Op>
readOps(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Op> ops;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        Op op;
        std::getline(fields, op.name, '\t');
        for (std::string arg; std::getline(fields, arg, '\t');)
            op.args.push_back(arg);
        ops.push_back(std::move(op));
    }
    return ops;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * Run every op through tdcRun. An op that stored cache entries runs a
 * second time against the disk tier it filled (the warm replay); an op
 * that stored none would meet the same cache state again, so its cold
 * counters stand for its warm ones.
 */
void
opPhase(const std::vector<Op> &ops, const std::string &work_dir)
{
    for (size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        resultCache().clearMemory();
        resultCache().resetStats();
        std::string out, err;
        int code = 0;
        {
            Span s("driver.op/" + op.name);
            code = tdcRun(op.args, out, err);
        }
        g_trace.op(op.name, code);
        writeFile(work_dir + "/op-" + std::to_string(i) + ".out", out);

        CacheStats warm = resultCache().stats();
        if (warm.stored > 0) {
            resultCache().clearMemory();
            resultCache().resetStats();
            std::string warm_out, warm_err;
            int warm_code = 0;
            {
                Span s("driver.op_warm/" + op.name);
                warm_code = tdcRun(op.args, warm_out, warm_err);
            }
            warm = resultCache().stats();
            if (warm_code != code || warm_out != out)
                count("trace.warm_mismatch", 1);
        }
        count("reliability.cache.memory_hits", double(warm.memoryHits));
        count("reliability.cache.disk_hits", double(warm.diskHits));
        count("reliability.cache.misses", double(warm.misses));
        count("reliability.cache.stored", double(warm.stored));
    }
    // The layer phase computes every cell afresh.
    resultCache().setDirectory("");
    resultCache().clearMemory();
}

// --- cpu + workload -----------------------------------------------------

const char *
machineLabel(const CmpConfig &m)
{
    return m.outOfOrder ? "fat" : "lean";
}

void
tally(const CmpConfig &m, const CmpSimResult &r)
{
    count("cpu.sim_cycles", double(r.cycles));
    count("cpu.sim_instructions", double(r.instructions));
    count("cpu.runs", 1);
    count(std::string("cpu.kcycles.") + machineLabel(m),
          double(r.cycles) / 1000.0);
}

/** The runCmpBatch call runIpcLossCampaign makes for @p spec. */
void
simBatch(const IpcLossCampaignSpec &spec)
{
    const std::vector<WorkloadProfile> &workloads =
        spec.workloads.empty() ? standardWorkloads() : spec.workloads;
    std::vector<CmpRunSpec> runs;
    for (const WorkloadProfile &w : workloads) {
        runs.push_back({spec.machine, w, ProtectionConfig::none(),
                        spec.seed});
        for (const ProtectionConfig &p : spec.protections)
            runs.push_back({spec.machine, w, p, spec.seed});
    }
    std::vector<CmpSimResult> results;
    {
        Span s(std::string("cpu.batch.") + machineLabel(spec.machine));
        results = runCmpBatch(runs, spec.cycles);
    }
    for (const CmpSimResult &r : results)
        tally(spec.machine, r);
}

/** One direct CmpSimulator::run, as figure 6 and the ablations call it. */
void
simSerial(const CmpConfig &m, const WorkloadProfile &w,
          const ProtectionConfig &p, uint64_t cycles)
{
    CmpSimulator sim(m, w, p, 42);
    CmpSimResult r;
    {
        Span s(std::string("cpu.run.") + machineLabel(m));
        r = sim.run(cycles);
    }
    tally(m, r);
}

void
cpuLayer(const Plan &plan)
{
    const CmpConfig fat = CmpConfig::fat();
    const CmpConfig lean = CmpConfig::lean();
    const WorkloadProfile &oltp = workloadByName("OLTP");
    if (!plan.ipc || plan.smoke) {
        // Standard probe for workloads that simulate no CMP.
        IpcLossCampaignSpec probe = IpcLossCampaignSpec::figure5(lean, "");
        probe.workloads = {oltp};
        probe.cycles = 20000;
        simBatch(probe);
        Span s("cpu.serial");
        simSerial(fat, oltp, ProtectionConfig::full(true), 20000);
        simSerial(lean, oltp, ProtectionConfig::full(true), 20000);
        return;
    }

    // fig5 (both panels) and the seeded custom grid.
    simBatch(IpcLossCampaignSpec::figure5(fat, ""));
    simBatch(IpcLossCampaignSpec::figure5(lean, ""));
    IpcLossCampaignSpec grid = IpcLossCampaignSpec::fromProtectionSpecs(
        lean, "", {"l1+steal+l2"});
    grid.seed = plan.seed;
    simBatch(grid);

    Span s("cpu.serial");
    // fig6 runs each (machine, workload) once for its L1 table and once
    // for its L2 table.
    for (int table = 0; table < 2; ++table)
        for (const CmpConfig &m : {fat, lean})
            for (const WorkloadProfile &w : standardWorkloads())
                simSerial(m, w, ProtectionConfig::full(true), 150000);
    // Ablation 3: port-stealing window.
    simSerial(fat, oltp, ProtectionConfig::none(), 120000);
    for (unsigned window : {0u, 1u, 2u, 4u, 8u, 16u}) {
        CmpConfig m = fat;
        m.stealWindow = window;
        simSerial(m, oltp, ProtectionConfig::l1Only(window > 0), 120000);
    }
    // Ablations 4 and 5: read-before-write cost, write-through L1.
    for (const CmpConfig &m : {fat, lean}) {
        for (const char *name : {"OLTP", "Ocean"}) {
            simSerial(m, workloadByName(name), ProtectionConfig::none(),
                      120000);
            simSerial(m, workloadByName(name), ProtectionConfig::full(true),
                      120000);
        }
    }
    for (const CmpConfig &m : {fat, lean}) {
        for (const char *name : {"OLTP", "Web"}) {
            const WorkloadProfile &w = workloadByName(name);
            simSerial(m, w, ProtectionConfig::none(), 120000);
            simSerial(m, w, ProtectionConfig::full(true), 120000);
            simSerial(m, w, ProtectionConfig::writeThroughL1(), 120000);
        }
    }
}

void
workloadLayer(const Plan &plan)
{
    const size_t n = plan.smoke ? 20000 : 200000;
    uint64_t loads = 0;
    for (const WorkloadProfile &w : standardWorkloads()) {
        InstructionStream stream(w, plan.seed);
        Span s("workload.next");
        for (size_t i = 0; i < n; ++i)
            loads += stream.next().kind == SyntheticInstr::Kind::kLoad;
    }
    count("workload.instructions", double(n * standardWorkloads().size()));
    count("workload.loads", double(loads));
}

// --- scheme + core + array --------------------------------------------

/** One Monte-Carlo injection cell as the campaigns evaluate it. */
struct InjectCell
{
    std::string scheme;
    std::string fault;
    int trials;
    uint64_t seed;
};

/** A campaign grid's cells: faults are rows, schemes columns. */
void
addGrid(std::vector<InjectCell> &cells,
        const std::vector<std::string> &schemes,
        const std::vector<std::string> &faults, int trials, uint64_t seed)
{
    for (size_t row = 0; row < faults.size(); ++row)
        for (size_t col = 0; col < schemes.size(); ++col)
            cells.push_back({schemes[col], faults[row], trials,
                             shardSeed(seed, row * schemes.size() + col)});
}

std::vector<InjectCell>
injectCells(const Plan &plan)
{
    std::vector<InjectCell> cells;
    if (!plan.inject || plan.smoke) {
        // Standard probe: one 32x32 cell per scheme family.
        addGrid(cells,
                {"2d:edc8/i4+vp32", "conv:secded/i4", "wt:edc8/i4",
                 "prod:64x64", "dram:chipkill/x4"},
                {"32x32"}, plan.smoke ? 2 : 20, plan.seed);
        return cells;
    }
    // fig3, related-work and chipkill grids (figure_campaigns.cc).
    addGrid(cells,
            {"conv:secded/i4", "conv:oecned/i4", "2d:edc8/i4+vp32",
             "2d:secded/i4+vp32"},
            {"1x1", "4x1", "8x1", "32x1", "4x4", "8x8", "16x16", "32x32",
             "1x32", "1x256"},
            40, 2026);
    addGrid(cells, {"prod:256x256", "2d:edc8/i4+vp32"},
            {"1x1", "3x1", "1x3", "2x2", "8x8", "32x32"}, 50, 60606);
    addGrid(cells,
            {"conv:secded/i4/r64", "2d:edc8/i4+vp32/r64", "prod:64x64",
             "dram:chipkill/x4", "dram:iecc+chipkill/x8"},
            {"single", "row:4", "8x8", "fullcol", "chip:any",
             "hammer:3@0.5", "senseamp:16"},
            50, 10107);
    // The seeded custom grid.
    addGrid(cells,
            {"2d:edc8/i4+vp32", "conv:secded/i4", "prod:256x256",
             "dram:chipkill/x4"},
            {"32x32", "row:32", "chip:any"}, 200, plan.seed);
    // The seeded --optimize search over its default fault axis
    // (driver/optimize.cc): cell f of a design point is seeded
    // shardSeed(seed, f).
    const std::vector<std::string> faults = {"single", "row:32", "col:8",
                                             "32x32"};
    for (const std::string &spec :
         expandSpecPatterns({"2d:edc{8,16,32}/i{1..8..x2}+vp32"}))
        for (size_t f = 0; f < faults.size(); ++f)
            cells.push_back({spec, faults[f], 100, shardSeed(plan.seed, f)});
    // No op injects the write-through family; one probe cell keeps its
    // layer time measured.
    cells.push_back({"wt:edc8/i4", "32x32", 20, plan.seed});
    return cells;
}

void
schemeLayer(const std::vector<InjectCell> &cells)
{
    for (const InjectCell &cell : cells) {
        const SchemePtr scheme = parseScheme(cell.scheme);
        const FaultModel fault = parseFaultModel(cell.fault);
        const std::string family = cell.scheme.substr(0, cell.scheme.find(':'));
        InjectionOutcome o;
        {
            Span s("scheme.inject." + family);
            o = scheme->injectAndRecover(fault, cell.trials, cell.seed);
        }
        count("scheme.trials", cell.trials);
        count("scheme.corrected", o.corrected);
    }
}

/** A 2D cell replayed outside the scheme layer. */
struct CoreCell
{
    TwoDimConfig config;
    FaultModel fault;
    int trials;
    uint64_t seed;
};

/**
 * Fill a bank with writeWord, inject one event, readWord every word.
 * A read during which stats().recoveries grew is recorded as a
 * core.recover span, with lastRecovery().rowReads as its work.
 */
void
coreCell(const CoreCell &cell)
{
    for (int t = 0; t < cell.trials; ++t) {
        Rng rng(shardSeed(cell.seed, uint64_t(t)));
        TwoDimArray arr(cell.config);
        {
            Span s("core.fill");
            for (size_t r = 0; r < arr.rows(); ++r)
                for (size_t w = 0; w < arr.wordsPerRow(); ++w)
                    arr.writeWord(r, w, randomWord(rng, arr.dataBits()));
        }
        {
            Span s("array.inject");
            FaultInjector(rng).inject(arr.cells(), cell.fault);
        }
        count("array.inject.events", 1);
        uint64_t row_reads = 0;
        {
            Span s("core.readback");
            for (size_t r = 0; r < arr.rows(); ++r) {
                for (size_t w = 0; w < arr.wordsPerRow(); ++w) {
                    const uint64_t before = arr.stats().recoveries;
                    const int64_t start = nowNs();
                    arr.readWord(r, w);
                    if (arr.stats().recoveries != before) {
                        g_trace.add("core.recover", start, nowNs());
                        row_reads += arr.lastRecovery().rowReads;
                    }
                }
            }
        }
        count("core.recover.calls", double(arr.stats().recoveries));
        count("core.recover.failed", double(arr.stats().recoveryFailures));
        count("core.recover.row_reads", double(row_reads));
    }
}

std::vector<CoreCell>
coreCells(const Plan &plan, const std::vector<InjectCell> &inject_cells)
{
    const FaultModel cluster = FaultModel::cluster(32, 32);
    std::vector<CoreCell> cells;
    if (plan.smoke) {
        cells.push_back({TwoDimConfig::l1Default(), cluster, 2, plan.seed});
    } else if (plan.ipc) {
        // The ablation sweeps' banks, one 32x32 event each.
        for (size_t v : {8u, 16u, 32u, 64u}) {
            TwoDimConfig cfg = TwoDimConfig::l1Default();
            cfg.verticalParityRows = v;
            cells.push_back({cfg, cluster, 1, 31337});
        }
        for (CodeKind kind :
             {CodeKind::kEdc8, CodeKind::kEdc16, CodeKind::kSecDed}) {
            TwoDimConfig cfg = TwoDimConfig::l1Default();
            cfg.horizontalKind = kind;
            cells.push_back({cfg, cluster, 1, 777});
        }
        for (size_t rows : {64u, 128u, 256u, 512u, 1024u}) {
            TwoDimConfig cfg = TwoDimConfig::l1Default();
            cfg.dataRows = rows;
            cells.push_back({cfg, cluster, 1, 4242});
        }
    } else if (plan.inject) {
        // Every 2d injection cell, at most 40 trials each.
        for (const InjectCell &c : inject_cells)
            if (c.scheme.rfind("2d:", 0) == 0)
                cells.push_back({parseTwoDimConfig(c.scheme),
                                 parseFaultModel(c.fault),
                                 std::min(c.trials, 40), c.seed});
    } else {
        // serve's bank under serve.faulted's fault model.
        cells.push_back({defaultServiceConfig(plan.seed).bank, cluster, 40,
                         plan.seed});
    }
    return cells;
}

/** Clean-bank access paths and scrub on the service's bank config. */
void
coreAccess(const Plan &plan)
{
    const int reps = plan.smoke ? 2 : 20;
    TwoDimArray arr(defaultServiceConfig(plan.seed).bank);
    Rng rng(plan.seed);
    std::vector<BitVector> values;
    for (size_t i = 0; i < arr.rows() * arr.wordsPerRow(); ++i)
        values.push_back(randomWord(rng, arr.dataBits()));
    const double words = double(values.size()) * reps;
    {
        Span s("core.write");
        for (int k = 0; k < reps; ++k)
            for (size_t r = 0, i = 0; r < arr.rows(); ++r)
                for (size_t w = 0; w < arr.wordsPerRow(); ++w, ++i)
                    arr.writeWord(r, w, values[i]);
    }
    count("core.writes", words);
    size_t clean = 0;
    {
        Span s("core.read");
        for (int k = 0; k < reps; ++k)
            for (size_t r = 0; r < arr.rows(); ++r)
                for (size_t w = 0; w < arr.wordsPerRow(); ++w)
                    clean += arr.readWord(r, w).status ==
                             DecodeStatus::kClean;
    }
    count("core.reads", words);
    if (double(clean) != words)
        count("core.read_not_clean", words - double(clean));
    const int scrubs = plan.smoke ? 5 : 200;
    {
        Span s("core.scrub");
        for (int k = 0; k < scrubs; ++k)
            arr.scrub();
    }
    count("core.scrub.rows", double(arr.rows()) * scrubs);
}

// --- ecc + array micro-probes -------------------------------------------

/** Time @p n decodes of @p words[i % size] under span @p name. */
void
timeDecodes(const std::string &name, const Code &code,
            const std::vector<BitVector> &words, size_t n,
            DecodeStatus expect)
{
    size_t as_expected = 0;
    {
        Span s(name);
        for (size_t i = 0; i < n; ++i)
            as_expected +=
                code.decode(words[i % words.size()]).status == expect;
    }
    count(name + ".calls", double(n));
    if (as_expected != n)
        count(name + ".unexpected", double(n - as_expected));
}

void
eccLayer(const Plan &plan)
{
    const size_t n = plan.smoke ? 2000 : 100000;
    Rng rng(plan.seed);
    std::vector<BitVector> data;
    for (int i = 0; i < 256; ++i)
        data.push_back(BitVector(64, rng.next()));

    const CodePtr edc8 = makeCode(CodeKind::kEdc8, 64);
    std::vector<BitVector> clean;
    size_t check_bits = 0;
    {
        Span s("ecc.edc8.encode");
        for (size_t i = 0; i < n; ++i)
            check_bits += edc8->encode(data[i % data.size()]).size();
    }
    count("ecc.edc8.encode.calls", double(n));
    count("ecc.edc8.encode.bits", double(check_bits));
    for (const BitVector &d : data)
        clean.push_back(edc8->encode(d));
    timeDecodes("ecc.edc8.decode_clean", *edc8, clean, n,
                DecodeStatus::kClean);

    // Dirty words: errors within the code's correction capability.
    const auto dirty = [&](const CodePtr &code, size_t flips) {
        std::vector<BitVector> words;
        for (const BitVector &d : data) {
            BitVector cw = code->encode(d);
            std::vector<size_t> flipped;
            while (flipped.size() < flips) {
                const size_t pos = rng.nextBelow(cw.size());
                if (std::find(flipped.begin(), flipped.end(), pos) ==
                    flipped.end()) {
                    flipped.push_back(pos);
                    cw.flip(pos);
                }
            }
            words.push_back(std::move(cw));
        }
        return words;
    };
    const CodePtr secded = makeCode(CodeKind::kSecDed, 64);
    timeDecodes("ecc.secded.decode_dirty", *secded, dirty(secded, 1), n,
                DecodeStatus::kCorrected);
    const CodePtr oecned = makeCode(CodeKind::kOecNed, 64);
    timeDecodes("ecc.oecned.decode_dirty", *oecned, dirty(oecned, 4),
                n / 10, DecodeStatus::kCorrected);

    // RS(15,12) over GF(16): one corrupted symbol per word.
    const SymbolRsCode rs(4, 12);
    std::vector<std::vector<uint32_t>> rs_words;
    for (int i = 0; i < 256; ++i) {
        std::vector<uint32_t> w(rs.codeSymbols());
        for (size_t k = SymbolRsCode::kCheckSymbols; k < w.size(); ++k)
            w[k] = uint32_t(rng.nextBelow(16));
        rs.encode(w);
        w[rng.nextBelow(w.size())] ^= uint32_t(1 + rng.nextBelow(15));
        rs_words.push_back(std::move(w));
    }
    size_t corrected = 0;
    {
        Span s("ecc.rs15_12.decode");
        for (size_t i = 0; i < n; ++i) {
            std::vector<uint32_t> w = rs_words[i % rs_words.size()];
            corrected += rs.decode(w).corrected();
        }
    }
    count("ecc.rs15_12.decode.calls", double(n));
    if (corrected != n)
        count("ecc.rs15_12.decode.unexpected", double(n - corrected));
}

void
arrayLayer(const Plan &plan)
{
    const size_t n = plan.smoke ? 2000 : 200000;
    // The 2d:edc8/i4 row: four 72-bit codewords, 4-way interleaved.
    const InterleaveMap map(72, 4);
    Rng rng(plan.seed);
    BitVector row = randomWord(rng, map.rowBits());
    BitVector word(72);
    uint64_t bits_set = 0;
    {
        Span s("array.extract");
        for (size_t i = 0; i < n; ++i) {
            map.extractWordInto(row, i % 4, word);
            bits_set += word.get(i % 72);
        }
    }
    count("array.extract.calls", double(n));
    {
        Span s("array.deposit");
        for (size_t i = 0; i < n; ++i) {
            word.flip(i % 72);
            map.depositWord(row, i % 4, word);
        }
    }
    count("array.deposit.calls", double(n));
    count("array.extract.bits_set", double(bits_set));
    count("array.deposit.row_bits_set", double(row.popcount()));
}

// --- reliability, vlsi, driver ------------------------------------------

void
reliabilityLayer(const Plan &plan, const std::string &work_dir,
                 std::vector<CampaignResult> &tables)
{
    const int lifetime_trials = plan.smoke ? 3 : 60;
    {
        Span s("reliability.lifetime");
        tables.push_back(lifetimeScrubCampaign(lifetime_trials));
        tables.push_back(lifetimeSpareCampaign(lifetime_trials));
    }
    count("reliability.lifetime.trials", 28.0 * lifetime_trials);
    {
        Span s("reliability.yield");
        tables.push_back(figure8YieldCampaign());
        tables.push_back(
            figure8YieldMonteCarloCampaign(plan.smoke ? 10 : 300));
    }

    // Disk-tier hits: store entries, then look them up from a fresh
    // cache (empty memory tier) on the same directory.
    const int n = 200;
    const std::string dir = work_dir + "/lookup-cache";
    const auto key = [](int i) {
        return "perfbench|entry=" + std::to_string(i);
    };
    {
        ResultCache writer(dir);
        for (int i = 0; i < n; ++i)
            writer.store(key(i), {{i, 2 * i, 3, 4}, {0.5 * i}});
    }
    ResultCache reader(dir);
    int hits = 0;
    {
        Span s("reliability.cache.lookup");
        for (int i = 0; i < n; ++i)
            hits += reader.lookup(key(i)).has_value();
    }
    count("reliability.cache.lookups", n);
    if (hits != n)
        count("reliability.cache.lookup_misses", n - hits);
}

void
vlsiLayer(std::vector<CampaignResult> &tables)
{
    Span s("vlsi.cost");
    tables.push_back(figure1StorageCampaign());
    tables.push_back(figure1EnergyCampaign());
    tables.push_back(figure7Campaign(
        "", CacheGeometry::l1(),
        {"2d:edc8/i4+vp32", "conv:dected/i16", "conv:qecped/i8",
         "conv:oecned/i4", "wt:edc8/i4"}));
    tables.push_back(figure7Campaign(
        "", CacheGeometry::l2(),
        {"2d:edc16/i2+vp32/w256", "conv:dected/i16", "conv:qecped/i8",
         "conv:oecned/i4"}));
}

void
driverLayer(const Plan &plan, const std::vector<CampaignResult> &tables)
{
    OptimizeRequest req;
    req.seed = plan.seed;
    if (plan.inject && !plan.smoke) {
        req.patterns = {"2d:edc{8,16,32}/i{1..8..x2}+vp32"};
        req.trials = 100;
    } else {
        req.patterns = {"2d:edc{8,16}/i4+vp32"};
        req.trials = plan.smoke ? 2 : 20;
    }
    std::vector<DesignPoint> points;
    {
        Span s("driver.optimize");
        points = evaluateDesignSpace(req);
    }
    count("driver.design_points", double(points.size()));

    std::string text;
    {
        Span s("driver.render");
        RunContext ctx(RunFormat::kTable);
        for (const CampaignResult &t : tables)
            ctx.table(t);
        text = ctx.str();
    }
    count("driver.render.bytes", double(text.size()));
}

// --- service ------------------------------------------------------------

void
serviceLayer(const Plan &plan, const std::string &work_dir)
{
    struct Stream
    {
        const char *name;
        std::string spec;
        bool faulted;
    };
    const bool full = plan.serve && !plan.smoke;
    const std::vector<Stream> streams = {
        {"clean",
         full ? "uniform/n4e6/w30"
              : plan.smoke ? "uniform/n2e4/w30" : "uniform/n2e5/w30",
         false},
        {"faulted",
         full ? "zipf90/n1e6" : plan.smoke ? "zipf90/n1e4" : "zipf90/n1e5",
         true},
    };
    for (const Stream &st : streams) {
        // The faulted stream keeps run.py's fixed seed (FAULTED_SEED).
        const uint64_t seed = st.faulted ? 12345 : plan.seed;
        ServiceConfig cfg = defaultServiceConfig(seed);
        if (st.faulted) {
            cfg.scrubInterval = 64;
            cfg.faultInterval = 32768;
            cfg.fault = parseFaultModel("32x32");
        }
        const RequestStreamSpec spec = parseRequestSpec(st.spec);
        std::vector<ServiceRequest> generated;
        {
            Span s("service.generate");
            generated = buildRequests(spec, cfg.totalWords(), seed);
        }
        const std::string path =
            work_dir + "/layer-" + st.name + ".trace";
        {
            Span s("service.trace_write");
            writeTrace(path, generated);
        }
        std::vector<ServiceRequest> requests;
        {
            Span s("service.trace_read");
            requests = readTrace(path);
        }
        std::remove(path.c_str());
        if (requests != generated)
            count("service.trace_mismatch", 1);

        const CacheService service(cfg);
        ServiceReport report;
        {
            Span s(std::string("service.serve.") + st.name);
            report = service.serve(requests);
        }
        const ServiceCounters &c = report.total.counters;
        count(std::string("service.requests.") + st.name,
              double(c.requests));
        count("service.rbw_absorbed", double(c.rbwAbsorbed));
        count("service.rbw_charged", double(c.rbwCharged));
        count("service.recoveries", double(c.recoveries));
        count("service.recovery_row_reads", double(c.recoveryRowReads));
        count("service.scrub_steps", double(c.scrubSteps));
    }
}

// --- Modes ----------------------------------------------------------------

int
execMode(const std::string &usage_file, char **child_argv)
{
    const Clock::time_point start = Clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_probe: fork");
        return 1;
    }
    if (pid == 0) {
        execvp(child_argv[0], child_argv);
        std::perror("perfbench_probe: exec");
        _exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    if (wait4(pid, &status, 0, &usage) < 0) {
        std::perror("perfbench_probe: wait4");
        return 1;
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    const auto seconds = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    FILE *out = std::fopen(usage_file.c_str(), "w");
    if (out == nullptr) {
        std::perror("perfbench_probe: usage file");
        return 1;
    }
    std::fprintf(out, "%.9f %.6f %.6f %ld %d\n", wall,
                 seconds(usage.ru_utime), seconds(usage.ru_stime),
                 usage.ru_maxrss, code);
    return std::fclose(out) == 0 ? 0 : 1;
}

uint64_t
parseSeed(const std::string &text)
{
    size_t used = 0;
    const uint64_t seed = std::stoull(text, &used);
    if (used != text.size())
        throw std::invalid_argument("bad seed \"" + text + "\"");
    return seed;
}

int
genMode(const std::string &spec, const std::string &seed,
        const std::string &path)
{
    const uint64_t s = parseSeed(seed);
    writeTrace(path, buildRequests(parseRequestSpec(spec),
                                   defaultServiceConfig(s).totalWords(), s));
    return 0;
}

int
traceMode(const std::string &workload, const std::string &seed,
          const std::string &ops_file, const std::string &work_dir,
          const std::string &out_file, bool smoke)
{
    Plan plan;
    plan.ipc = workload == "ipc";
    plan.inject = workload == "inject";
    plan.serve = workload == "serve";
    if (!plan.ipc && !plan.inject && !plan.serve)
        throw std::invalid_argument("unknown workload \"" + workload + "\"");
    plan.smoke = smoke;
    plan.seed = parseSeed(seed);
    setParallelThreads(1);

    opPhase(readOps(ops_file), work_dir);

    std::vector<CampaignResult> tables;
    cpuLayer(plan);
    workloadLayer(plan);
    const std::vector<InjectCell> cells = injectCells(plan);
    schemeLayer(cells);
    for (const CoreCell &cell : coreCells(plan, cells))
        coreCell(cell);
    coreAccess(plan);
    eccLayer(plan);
    arrayLayer(plan);
    reliabilityLayer(plan, work_dir, tables);
    vlsiLayer(tables);
    driverLayer(plan, tables);
    serviceLayer(plan, work_dir);

    g_trace.write(out_file);
    return 0;
}

const char *const kUsage =
    "usage: perfbench_probe exec <usage-file> <program> [args...]\n"
    "       perfbench_probe gen <request-spec> <seed> <trace-path>\n"
    "       perfbench_probe trace <workload> <seed> <ops-file> <work-dir>"
    " <out-json> [smoke]\n";

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() >= 3 && args[0] == "exec")
            return execMode(args[1], argv + 3);
        if (args.size() == 4 && args[0] == "gen")
            return genMode(args[1], args[2], args[3]);
        if ((args.size() == 6 || (args.size() == 7 && args[6] == "smoke")) &&
            args[0] == "trace")
            return traceMode(args[1], args[2], args[3], args[4], args[5],
                             args.size() == 7);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
        return 1;
    }
    std::fputs(kUsage, stderr);
    return 2;
}
