/**
 * @file
 * The built-in --figure implementations: the paper's figures and
 * tables, each one a direct port of its historical bench_* main onto
 * the RunContext sink. In table format the emitted bytes are the
 * bench binaries' exact historical stdout (pinned by the driver
 * golden tests); csv/json keep the structured tables only.
 */

#include "driver/tdc_run.hh"

#include <algorithm>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"
#include "cpu/ipc_campaign.hh"
#include "reliability/scrub_model.hh"
#include "scheme/figure_campaigns.hh"

namespace tdc
{

namespace
{

/**
 * The distinct CMP simulations one figure reads, simulated by a single
 * runCmpBatch call. A run listed twice (a baseline two tables share)
 * is simulated once; the tables then look their runs up by the same
 * (machine, workload, protection) triple they listed.
 */
class CmpRuns
{
  public:
    CmpRuns(uint64_t cycles, uint64_t seed) : cycles_(cycles), seed_(seed)
    {
    }

    void add(const CmpConfig &m, const WorkloadProfile &w,
             const ProtectionConfig &p)
    {
        if (find(m, w, p) == specs_.size())
            specs_.push_back({m, w, p, seed_});
    }

    /** Simulate every listed run. */
    void run() { results_ = runCmpBatch(specs_, cycles_); }

    /** Result of a listed run (throws std::out_of_range otherwise). */
    const CmpSimResult &operator()(const CmpConfig &m,
                                   const WorkloadProfile &w,
                                   const ProtectionConfig &p) const
    {
        return results_.at(find(m, w, p));
    }

  private:
    size_t find(const CmpConfig &m, const WorkloadProfile &w,
                const ProtectionConfig &p) const
    {
        const CmpRunSpec spec{m, w, p, seed_};
        return size_t(std::find(specs_.begin(), specs_.end(), spec) -
                      specs_.begin());
    }

    uint64_t cycles_;
    uint64_t seed_;
    std::vector<CmpRunSpec> specs_;
    std::vector<CmpSimResult> results_;
};

/** Fill every word of @p arr from @p rng, then strike it with a solid
 *  32x32 cluster drawn from the same stream (ablations 1, 2 and 7). */
void
fillAndStrike(TwoDimArray &arr, Rng &rng)
{
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, BitVector(64, rng.next()));
    FaultInjector(rng).inject(arr.cells(), FaultModel::cluster(32, 32));
}

// --- Figure 1 -------------------------------------------------------

void
figure1(RunContext &ctx)
{
    ctx.prose("=== Figure 1(b): extra memory storage ===\n\n");
    ctx.table(figure1StorageCampaign());
    ctx.prose("\nPaper shape: storage grows steeply with correction "
              "strength; 64b words pay\nproportionally more "
              "(OECNED/64b = 89.1% as quoted for Figure 3(b)).\n");

    ctx.prose("\n=== Figure 1(c): extra energy per read ===\n\n");
    ctx.table(figure1EnergyCampaign());
    ctx.prose("\nPaper shape: energy overhead grows superlinearly with "
              "code strength (check-bit\ncolumns + wider XOR trees); "
              "EDC8 and SECDED stay cheap.\n");
}

// --- Figure 2 -------------------------------------------------------

void
figure2(RunContext &ctx)
{
    ctx.prose("=== Figure 2: normalized energy per read vs interleave "
              "degree ===\n\n");
    ctx.table(figure2EnergyCampaign(
        "--- Figure 2(b): 64kB cache, (72,64) SECDED words ---",
        64 * 1024, 64, 1));
    ctx.prose("\n");
    ctx.table(figure2EnergyCampaign(
        "--- Figure 2(c): 4MB cache, (266,256) SECDED words, 8 banks ---",
        4 * 1024 * 1024, 256, 8));
    ctx.prose("\n");
    ctx.prose("Paper shape: energy rises with interleave degree under "
              "every objective; the rise\nis steeper for the 4MB cache "
              "(wider words multiply the bitline swing cost).\n");
}

// --- Figure 3 -------------------------------------------------------

void
figure3(RunContext &ctx)
{
    constexpr int kTrialsPerPoint = 40;

    ctx.prose("=== Figure 3: coverage and overhead on a 256x256 data "
              "array ===\n\n");
    ctx.table(figure3OverheadCampaign());

    ctx.prosef("\n--- Injection campaigns (%d solid clusters per point)"
               " ---\n\n", kTrialsPerPoint);
    ctx.table(figure3InjectionCampaign(kTrialsPerPoint));

    ctx.prose(
        "\nPaper shape: (a) corrects only <=4-bit row bursts; (b) buys "
        "32-bit bursts at 89%\nstorage; (c) corrects full 32x32 "
        "clusters at 25%. Full-column failures (1x256)\nneed the "
        "SECDED-horizontal variant (the grey box of Figure 4(b)): with "
        "an even\nnumber of rows per vertical group the column flip is "
        "parity-invisible, so the\nEDC-only scheme detects but cannot "
        "locate it -- SECDED pinpoints and fixes it\nrow by row.\n");
}

// --- Figure 5 -------------------------------------------------------

void
figure5(RunContext &ctx)
{
    ctx.prose("=== Figure 5: performance (IPC) loss in 2D-protected "
              "caches ===\n\n");
    ctx.table(runIpcLossCampaign(IpcLossCampaignSpec::figure5(
        CmpConfig::fat(), "--- Figure 5(a: fat baseline) ---")));
    ctx.prose("\n");
    ctx.table(runIpcLossCampaign(IpcLossCampaignSpec::figure5(
        CmpConfig::lean(), "--- Figure 5(b: lean baseline) ---")));
    ctx.prose("\n");
    ctx.prose(
        "Paper shape: full protection costs low single digits (paper: "
        "2.9% fat / 1.8% lean\naverage); port stealing removes most "
        "of the fat CMP's L1 port contention; the\nlean CMP's loss has "
        "a larger L2 component than the fat CMP's.\n");
}

// --- Figure 6 -------------------------------------------------------

constexpr uint64_t kFig6Cycles = 150000;
constexpr uint64_t kFig6Seed = 42;

void
figure6L1Table(RunContext &ctx, const CmpRuns &runs, const CmpConfig &m,
               const char *title)
{
    ctx.prosef("--- %s: L1 data cache accesses / 100 cycles (per core)"
               " ---\n\n", title);
    Table t({"Workload", "Read:Data", "Write", "Fill/Evict",
             "Extra read (2D)", "Total", "Extra %"});
    for (const WorkloadProfile &w : standardWorkloads()) {
        const CmpSimResult &r = runs(m, w, ProtectionConfig::full(true));
        const double reads = r.per100(r.l1ReadsData) / m.cores;
        const double writes = r.per100(r.l1Writes) / m.cores;
        const double fills = r.per100(r.l1FillEvict) / m.cores;
        const double extra = r.per100(r.l1ExtraReads) / m.cores;
        const double total = reads + writes + fills + extra;
        t.addRow({w.name, Table::num(reads, 1), Table::num(writes, 1),
                  Table::num(fills, 1), Table::num(extra, 1),
                  Table::num(total, 1), Table::pct(extra / total)});
    }
    ctx.table(t, std::string(title) + ": L1 accesses / 100 cycles");
    ctx.prose("\n");
}

void
figure6L2Table(RunContext &ctx, const CmpRuns &runs, const CmpConfig &m,
               const char *title)
{
    ctx.prosef("--- %s: L2 cache accesses / 100 cycles (all cores) "
               "---\n\n", title);
    Table t({"Workload", "Read:Inst", "Read:Data", "Write", "Fill/Evict",
             "Extra read (2D)", "Total"});
    for (const WorkloadProfile &w : standardWorkloads()) {
        const CmpSimResult &r = runs(m, w, ProtectionConfig::full(true));
        const double ri = r.per100(r.l2ReadsInst);
        const double rd = r.per100(r.l2ReadsData);
        const double wr = r.per100(r.l2Writes);
        const double fe = r.per100(r.l2FillEvict);
        const double ex = r.per100(r.l2ExtraReads);
        t.addRow({w.name, Table::num(ri, 1), Table::num(rd, 1),
                  Table::num(wr, 1), Table::num(fe, 1), Table::num(ex, 1),
                  Table::num(ri + rd + wr + fe + ex, 1)});
    }
    ctx.table(t, std::string(title) + ": L2 accesses / 100 cycles");
    ctx.prose("\n");
}

void
figure6(RunContext &ctx)
{
    ctx.prose("=== Figure 6: cache access breakdown per 100 CPU cycles "
              "===\n\n");
    // A machine's L1 and L2 breakdowns read the same fully protected
    // run of each workload: 12 simulations feed the four tables.
    const CmpConfig fat = CmpConfig::fat();
    const CmpConfig lean = CmpConfig::lean();
    CmpRuns runs(kFig6Cycles, kFig6Seed);
    for (const CmpConfig &m : {fat, lean})
        for (const WorkloadProfile &w : standardWorkloads())
            runs.add(m, w, ProtectionConfig::full(true));
    runs.run();
    figure6L1Table(ctx, runs, fat, "Figure 6(a) fat baseline");
    figure6L1Table(ctx, runs, lean, "Figure 6(b) lean baseline");
    figure6L2Table(ctx, runs, fat, "Figure 6(c) fat baseline");
    figure6L2Table(ctx, runs, lean, "Figure 6(d) lean baseline");
    ctx.prose(
        "Paper shape: writes (the source of read-before-write traffic) "
        "are a small\nfraction of accesses; 2D coding adds roughly 20% "
        "extra reads; the fat CMP has\nhigher per-core L1 bandwidth, the "
        "lean CMP higher aggregate L2 bandwidth.\n");
}

// --- Figure 7 -------------------------------------------------------

void
figure7(RunContext &ctx)
{
    ctx.prose("=== Figure 7: overhead of coding schemes for 32x32-bit "
              "coverage ===\n\n");

    ctx.table(figure7Campaign(
        "--- Figure 7(a): 64kB L1 data cache (normalized to "
        "SECDED+Intv2 = 100%) ---",
        CacheGeometry::l1(),
        {
            "2d:edc8/i4+vp32",
            "conv:dected/i16",
            "conv:qecped/i8",
            "conv:oecned/i4",
            "wt:edc8/i4",
        }));
    ctx.prose("\n");

    ctx.table(figure7Campaign(
        "--- Figure 7(b): 4MB L2 cache (normalized to "
        "SECDED+Intv2 = 100%) ---",
        CacheGeometry::l2(),
        {
            "2d:edc16/i2+vp32/w256",
            "conv:dected/i16",
            "conv:qecped/i8",
            "conv:oecned/i4",
        }));
    ctx.prose("\n");

    ctx.prose(
        "Paper shape: 2D coding is the cheapest on every axis; "
        "conventional multi-bit ECC\npays 300-500% dynamic power "
        "(coding logic + deep interleaving); write-through\nsaves array "
        "area but burns power duplicating stores into the L2.\n");
}

// --- Figure 8 -------------------------------------------------------

void
figure8(RunContext &ctx)
{
    ctx.prose("=== Figure 8(a): 16MB L2 cache yield vs failing cells "
              "===\n\n");
    ctx.table(figure8YieldCampaign());
    ctx.prose("\nPaper shape: spare-only collapses first; ECC-only "
              "degrades with multi-bit words;\nECC + a few spares "
              "stays near 100% across the sweep.\n");

    ctx.prose("\n=== Figure 8(a) cross-check: Monte Carlo vs analytic "
              "(small array) ===\n\n");
    ctx.table(figure8YieldMonteCarloCampaign());

    ctx.prose("\n=== Figure 8(b): P(all soft errors correctable), "
              "10 x 16MB caches, 1000 FIT/Mb ===\n\n");
    ctx.table(figure8SoftErrorCampaign());
    ctx.prose(
        "\nPaper shape: without 2D coding the success probability decays "
        "with operating\ntime, faster at higher hard-error rates; with 2D "
        "coding runtime immunity holds.\n");
}

// --- Related work ---------------------------------------------------

void
relatedWork(RunContext &ctx)
{
    ctx.prose("=== Related work: HV product code vs 2D coding "
              "(256x256 array) ===\n\n");
    ctx.prosef("Storage overhead: product code %.1f%%, 2D coding "
               "25.0%%\n\n",
               100.0 * parseScheme("prod:256x256")->storageOverhead());

    ctx.table(relatedWorkCampaign());

    ctx.prose(
        "\nThe product code is cheaper but collapses on any 2x2 block "
        "(silently!) and on\neven per-line patterns; the paper's scheme "
        "interleaves both dimensions so solid\nclusters within 32x32 "
        "never cancel, and detection never requires reading the\n"
        "vertical code.\n");
}

// --- Chipkill -------------------------------------------------------

void
chipkill(RunContext &ctx)
{
    ctx.prose("=== Chipkill/DDC vs 2D coding: coverage vs storage "
              "===\n\n");
    ctx.prose("One scheme per protection class: interleaved SECDED, "
              "the paper's 2D coding,\nthe HV product code, and two "
              "chipkill-class DRAM ranks -- RS(15,12) SSC-DSD\nover "
              "x4 chips, and x8 chips with per-chip IECC SEC-DED "
              "feeding chip erasures\ninto a shortened RS(11,8).\n\n");

    ctx.table(chipkillOverheadCampaign());
    ctx.prose("\n");
    ctx.table(chipkillInjectionCampaign());

    ctx.prose(
        "\nThe symbol code rides out whole-chip kills and anything "
        "confined to one chip,\nbut a dense multi-row hammer band "
        "spans chips and only detects; 2D coding\ncovers the wide "
        "SRAM-shaped clusters the symbol code cannot locate. IECC\n"
        "buys per-chip bit repair and erasure marking at a steep "
        "check-bit cost on\nnarrow bursts -- the coverage-vs-storage "
        "trade the table quantifies.\n");
}

// --- Table 1 --------------------------------------------------------

void
lifetime(RunContext &ctx)
{
    ctx.prose("=== Lifetime/FIT reliability: fault accumulation over "
              "5-year missions ===\n\n");
    ctx.prose("Jaguar field-failure FIT mix accelerated 10000x "
              "(accelerated testing);\ntransient events flip bits, "
              "permanent events stick rows/cols/cells. Each cell\n"
              "reports the censored MTTF estimate, the FIT rate, and "
              "surviving trials.\n\n");

    ctx.table(lifetimeScrubCampaign());
    ctx.prose("\nFrequent checking shrinks the accumulation window "
              "(Section 2.1's per-read\nlimit is T=event); monthly "
              "scrubbing lets independent events meet in one\nwindow "
              "and overwhelm the horizontal code.\n\n");

    ctx.table(lifetimeSpareCampaign());
    ctx.prose("\nSpare rows retire accumulated stuck-at rows after "
              "each clean scrub, so the\npermanent-fault population "
              "stops compounding; transient-dominated failures\n"
              "are unaffected.\n");
}

void
table1(RunContext &ctx)
{
    ctx.prose("=== Table 1: simulated systems ===\n\n");

    Table machines({"Parameter", "Fat CMP", "Lean CMP"});
    const CmpConfig fat = CmpConfig::fat();
    const CmpConfig lean = CmpConfig::lean();
    machines.addRow({"Cores", std::to_string(fat.cores),
                     std::to_string(lean.cores)});
    machines.addRow({"Core type", "4-wide out-of-order",
                     "2-wide in-order, 4 threads"});
    machines.addRow({"In-flight window", std::to_string(fat.robSize),
                     std::to_string(lean.robSize)});
    machines.addRow({"Store queue", std::to_string(fat.storeQueue),
                     std::to_string(lean.storeQueue)});
    machines.addRow({"L1 D-cache", "64kB 2-way 64B, 2-cycle, 2-port WB",
                     "64kB 2-way 64B, 2-cycle, 1-port WB"});
    machines.addRow({"L2 cache",
                     "16MB 8-way, " + std::to_string(fat.l2HitLatency) +
                         "-cycle hit, " + std::to_string(fat.l2Banks) +
                         " banks",
                     "4MB 16-way, " + std::to_string(lean.l2HitLatency) +
                         "-cycle hit, " + std::to_string(lean.l2Banks) +
                         " banks"});
    machines.addRow({"Memory latency (cycles)",
                     std::to_string(fat.memLatency),
                     std::to_string(lean.memLatency)});
    ctx.table(machines, "Table 1: simulated systems");

    ctx.prose("\n=== Table 1: workload profiles (substituted synthetic"
              " generators; see DESIGN.md) ===\n\n");
    Table wl({"Workload", "Class", "load%", "store%", "L1I miss%",
              "L1D miss%", "L2 miss%", "dirty evict%"});
    for (const WorkloadProfile &w : standardWorkloads()) {
        wl.addRow({w.name, w.scientific ? "scientific" : "commercial",
                   Table::pct(w.loadFrac), Table::pct(w.storeFrac),
                   Table::pct(w.l1iMissRate), Table::pct(w.l1dMissRate),
                   Table::pct(w.l2MissRate),
                   Table::pct(w.dirtyEvictFrac)});
    }
    ctx.table(wl, "Table 1: workload profiles");
}

// --- Ablations ------------------------------------------------------

constexpr uint64_t kAblationCycles = 120000;
constexpr uint64_t kAblationSeed = 42;

/** Ablation 3's port-stealing windows (fat CMP, OLTP). */
constexpr unsigned kStealWindows[] = {0, 1, 2, 4, 8, 16};
/** Workloads of ablation 4 (read-before-write) and 5 (write-through). */
const char *const kRbwWorkloads[] = {"OLTP", "Ocean"};
const char *const kWriteThroughWorkloads[] = {"OLTP", "Web"};

/** The fat CMP with port-stealing window @p window. */
CmpConfig
fatWithStealWindow(unsigned window)
{
    CmpConfig m = CmpConfig::fat();
    m.stealWindow = window;
    return m;
}

/**
 * Every CMP run ablations 3-5 print, as one batch. The panels share
 * matched-pair runs -- ablation 3's baseline is ablation 4's fat/OLTP
 * baseline, and ablation 5's OLTP rows reuse ablation 4's -- so 22
 * simulations cover the tables' 27 runs.
 */
CmpRuns
ablationCmpRuns()
{
    CmpRuns runs(kAblationCycles, kAblationSeed);
    const WorkloadProfile &oltp = workloadByName("OLTP");
    runs.add(CmpConfig::fat(), oltp, ProtectionConfig::none());
    for (unsigned window : kStealWindows)
        runs.add(fatWithStealWindow(window), oltp,
                 ProtectionConfig::l1Only(window > 0));
    for (const CmpConfig &m : {CmpConfig::fat(), CmpConfig::lean()}) {
        for (const char *name : kRbwWorkloads) {
            const WorkloadProfile &w = workloadByName(name);
            runs.add(m, w, ProtectionConfig::none());
            runs.add(m, w, ProtectionConfig::full(true));
        }
        for (const char *name : kWriteThroughWorkloads) {
            const WorkloadProfile &w = workloadByName(name);
            runs.add(m, w, ProtectionConfig::none());
            runs.add(m, w, ProtectionConfig::full(true));
            runs.add(m, w, ProtectionConfig::writeThroughL1());
        }
    }
    runs.run();
    return runs;
}

void
ablationVerticalInterleaveSweep(RunContext &ctx)
{
    ctx.prose("--- Ablation 1: vertical interleave factor (256-row "
              "bank, EDC8+Intv4 horizontal) ---\n\n");
    Rng rng(31337);
    Table t({"V (parity rows)", "Vertical storage", "Total overhead",
             "Max cluster height", "Corrects 32x32?", "Recovery row reads"});
    for (size_t v : {8u, 16u, 32u, 64u}) {
        TwoDimConfig cfg = TwoDimConfig::l1Default();
        cfg.verticalParityRows = v;
        TwoDimArray arr(cfg);
        fillAndStrike(arr, rng);
        const bool ok = arr.scrub();
        const uint64_t reads = arr.lastRecovery().rowReads;
        t.addRow({std::to_string(v),
                  Table::pct(double(v) / double(cfg.dataRows)),
                  Table::pct(arr.storageOverhead()),
                  std::to_string(v), ok ? "yes" : "no",
                  std::to_string(reads)});
    }
    ctx.table(t, "Ablation 1: vertical interleave factor");
    ctx.prose("\nV trades vertical storage and coverage height; V=32 "
              "(the paper's choice) is the\nsmallest factor that "
              "covers 32x32 clusters.\n\n");
}

void
ablationHorizontalCodeSweep(RunContext &ctx)
{
    ctx.prose("--- Ablation 2: horizontal code choice ---\n\n");
    Rng rng(777);
    Table t({"Horizontal", "Storage (H only)", "Inline single-bit fix",
             "Detect width (Intv4)", "32x32 corrected?"});
    for (CodeKind kind : {CodeKind::kEdc8, CodeKind::kEdc16,
                          CodeKind::kSecDed}) {
        TwoDimConfig cfg = TwoDimConfig::l1Default();
        cfg.horizontalKind = kind;
        TwoDimArray arr(cfg);
        fillAndStrike(arr, rng);
        const bool ok = arr.scrub();

        const CodePtr code = makeCode(kind, 64);
        t.addRow({codeKindName(kind), Table::pct(code->storageOverhead()),
                  code->correctCapability() > 0 ? "yes" : "no",
                  std::to_string(4 * code->burstDetectCapability()),
                  ok ? "yes" : "no"});
    }
    ctx.table(t, "Ablation 2: horizontal code choice");
    ctx.prose("\nSECDED horizontal adds inline correction (the yield "
              "configuration of Section 5.2)\nat the same storage as "
              "EDC8; EDC16 widens detection but doubles check bits.\n\n");
}

void
ablationStealWindowSweep(RunContext &ctx, const CmpRuns &runs)
{
    ctx.prose("--- Ablation 3: port-stealing window (fat CMP, OLTP) "
              "---\n\n");
    const WorkloadProfile &w = workloadByName("OLTP");
    Table t({"Steal window (cycles)", "IPC loss vs baseline"});
    const double base_ipc =
        runs(CmpConfig::fat(), w, ProtectionConfig::none()).ipc();
    for (unsigned window : kStealWindows) {
        const double ipc = runs(fatWithStealWindow(window), w,
                                ProtectionConfig::l1Only(window > 0))
                               .ipc();
        t.addRow({std::to_string(window),
                  Table::pct((base_ipc - ipc) / base_ipc)});
    }
    ctx.table(t, "Ablation 3: port-stealing window");
    ctx.prose("\nA few cycles of store-queue residency are enough to "
              "absorb most read-before-\nwrite reads into idle port "
              "slots.\n\n");
}

void
ablationReadBeforeWriteCost(RunContext &ctx, const CmpRuns &runs)
{
    ctx.prose("--- Ablation 4: isolated read-before-write cost "
              "(full 2D, both machines) ---\n\n");
    Table t({"Machine", "Workload", "Extra reads / 100 cycles",
             "IPC loss"});
    for (const CmpConfig &m : {CmpConfig::fat(), CmpConfig::lean()}) {
        for (const char *name : kRbwWorkloads) {
            const WorkloadProfile &w = workloadByName(name);
            const CmpSimResult &rb = runs(m, w, ProtectionConfig::none());
            const CmpSimResult &rp =
                runs(m, w, ProtectionConfig::full(true));
            t.addRow({m.name, name,
                      Table::num(rp.per100(rp.l1ExtraReads +
                                           rp.l2ExtraReads), 1),
                      Table::pct((rb.ipc() - rp.ipc()) / rb.ipc())});
        }
    }
    ctx.table(t, "Ablation 4: isolated read-before-write cost");
    ctx.prose("\n");
}

void
ablationWriteThroughComparison(RunContext &ctx, const CmpRuns &runs)
{
    ctx.prose("--- Ablation 5: 2D write-back L1 vs EDC write-through "
              "L1 (both over 2D L2) ---\n\n");
    Table t({"Machine", "Workload", "Scheme", "IPC loss",
             "L2 writes / 100 cycles"});
    for (const CmpConfig &m : {CmpConfig::fat(), CmpConfig::lean()}) {
        for (const char *name : kWriteThroughWorkloads) {
            const WorkloadProfile &w = workloadByName(name);
            const double base_ipc =
                runs(m, w, ProtectionConfig::none()).ipc();
            for (const ProtectionConfig &prot :
                 {ProtectionConfig::full(true),
                  ProtectionConfig::writeThroughL1()}) {
                const CmpSimResult &r = runs(m, w, prot);
                t.addRow({m.name, name, prot.label(),
                          Table::pct((base_ipc - r.ipc()) / base_ipc),
                          Table::num(r.per100(r.l2Writes), 1)});
            }
        }
    }
    ctx.table(t, "Ablation 5: write-back 2D vs write-through EDC L1");
    ctx.prose("\nWrite-through duplicates every store into the shared "
              "L2: several times the L2\nwrite traffic of the "
              "write-back 2D scheme, and a larger IPC cost on the "
              "lean CMP\nwhose threads contend for L2 banks (the "
              "Section 2.1/5.1 argument for 2D-protected\nwrite-back "
              "L1 caches).\n\n");
}

void
ablationScrubIntervalSweep(RunContext &ctx)
{
    ctx.prose("--- Ablation 6: scrub interval vs per-read checking "
              "(16MB, SECDED words) ---\n\n");
    Table t({"Scrub interval", "E[uncorrectable] / 5 years",
             "P(survive 5 years)"});
    const double mission = 5 * 8760.0;
    // Scale the soft-error rate up to a harsh environment so the
    // differences are visible at table precision.
    auto params = [](double interval) {
        ScrubParams p;
        p.words = 2 * 1024 * 1024;
        p.errorsPerHour = 0.5;
        p.scrubIntervalHours = interval;
        return p;
    };
    for (double interval : {0.0, 1.0, 24.0, 24.0 * 7, 24.0 * 30}) {
        ScrubModel m(params(interval));
        const char *label = interval == 0.0 ? "per-read check"
                                            : nullptr;
        t.addRow({label != nullptr ? label
                                   : Table::num(interval, 0) + " h",
                  Table::num(m.expectedUncorrectable(mission), 4),
                  Table::pct(m.survivalProbability(mission), 2)});
    }
    ctx.table(t, "Ablation 6: scrub interval vs per-read checking");
    ctx.prose("\nScrubbing's vulnerability window grows linearly with "
              "the interval (Section 2.1);\nchecking on every read "
              "eliminates it, which is why the 2D scheme keeps the\n"
              "horizontal check on the access path.\n\n");
}

void
ablationRecoveryLatencySweep(RunContext &ctx)
{
    ctx.prose("--- Ablation 7: recovery latency vs bank size "
              "(Section 4: 'a few hundred or\n    thousand cycles, "
              "depending on the number of rows') ---\n\n");
    Rng rng(4242);
    Table t({"Bank rows", "Fault", "Recovery row reads",
             "Reads / bank rows"});
    for (size_t rows : {64u, 128u, 256u, 512u, 1024u}) {
        TwoDimConfig cfg = TwoDimConfig::l1Default();
        cfg.dataRows = rows;
        TwoDimArray arr(cfg);
        fillAndStrike(arr, rng);
        const RecoveryReport rep = arr.recover();
        t.addRow({std::to_string(rows),
                  rep.success ? "32x32 corrected" : "FAILED",
                  std::to_string(rep.rowReads),
                  Table::num(double(rep.rowReads) / double(rows), 2)});
    }
    ctx.table(t, "Ablation 7: recovery latency vs bank size");
    ctx.prose("\nRecovery costs a small constant number of bank "
              "marches (O(rows)), independent\nof the error size — "
              "cheap because errors are rare (the paper's argument "
              "that the\nrecovery path needs no optimization).\n\n");
}

void
ablation(RunContext &ctx)
{
    ctx.prose("=== Ablations: 2D coding design choices ===\n\n");
    ablationVerticalInterleaveSweep(ctx);
    ablationHorizontalCodeSweep(ctx);
    const CmpRuns runs = ablationCmpRuns();
    ablationStealWindowSweep(ctx, runs);
    ablationReadBeforeWriteCost(ctx, runs);
    ablationWriteThroughComparison(ctx, runs);
    ablationScrubIntervalSweep(ctx);
    ablationRecoveryLatencySweep(ctx);
}

} // namespace

const std::vector<FigureDef> &
figureList()
{
    static const std::vector<FigureDef> figures = {
        {"fig1", "storage + energy overhead of per-word EDC/ECC",
         figure1},
        {"fig2", "read energy vs physical interleave degree", figure2},
        {"fig3", "coverage + overhead on a 256x256 array (injection)",
         figure3},
        {"fig5", "IPC loss of 2D protection on both CMPs", figure5},
        {"fig6", "cache access breakdown per 100 cycles", figure6},
        {"fig7", "area/latency/power of schemes at 32x32 coverage",
         figure7},
        {"fig8", "yield and multi-year soft-error reliability", figure8},
        {"lifetime", "MTTF/FIT over mission time (scrub + spare sweeps)",
         lifetime},
        {"table1", "simulated systems and workload profiles", table1},
        {"ablation", "2D design-choice ablation sweeps", ablation},
        {"related-work", "HV product code vs 2D coding (injection)",
         relatedWork},
        {"chipkill", "chipkill/DDC vs 2D coding (coverage vs storage)",
         chipkill},
    };
    return figures;
}

} // namespace tdc
