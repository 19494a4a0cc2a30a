#include "service/cache_service.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/port_scheduler.hh"
#include "ecc/code_factory.hh"

namespace tdc
{

ServiceCounters &
ServiceCounters::operator+=(const ServiceCounters &o)
{
    requests += o.requests;
    reads += o.reads;
    writes += o.writes;
    rbwAbsorbed += o.rbwAbsorbed;
    rbwCharged += o.rbwCharged;
    portDelay += o.portDelay;
    corrected += o.corrected;
    due += o.due;
    sdc += o.sdc;
    recoveries += o.recoveries;
    recoveryRowReads += o.recoveryRowReads;
    scrubSteps += o.scrubSteps;
    scrubRepairs += o.scrubRepairs;
    scrubDue += o.scrubDue;
    faultEvents += o.faultEvents;
    return *this;
}

double
ServiceReport::throughputPerKTick() const
{
    return ticks == 0 ? 0.0
                      : 1000.0 * double(total.counters.requests) /
                            double(ticks);
}

CacheService::CacheService(const ServiceConfig &config) : cfg(config)
{
    if (cfg.shards == 0)
        throw std::invalid_argument("CacheService: zero shards");
    if (cfg.banksPerShard == 0)
        throw std::invalid_argument("CacheService: zero banks per shard");
    if (cfg.ports == 0)
        throw std::invalid_argument("CacheService: zero ports");
    // Every shard allocates its banks before serving a request, so an
    // oversized config is refused here, before anything is built. The
    // CLI's bounds keep the product below 2^46: it cannot wrap.
    if (cfg.totalWords() > ServiceConfig::kMaxTotalWords)
        throw std::invalid_argument(
            "CacheService: " + std::to_string(cfg.shards) + " shards x " +
            std::to_string(cfg.banksPerShard) + " banks x " +
            std::to_string(cfg.bank.dataRows) + " rows x " +
            std::to_string(cfg.bank.interleaveDegree) +
            " words per row exceeds the cap of " +
            std::to_string(ServiceConfig::kMaxTotalWords) + " words");
    code = makeCode(cfg.bank.horizontalKind, cfg.bank.wordBits);
}

namespace
{

/** Base latency of every read and write, before queueing/recovery. */
constexpr unsigned kAccessLatency = 2;

/**
 * One shard's serving loop: its own banks, port scheduler, scrub
 * cursor, and RNG streams. Everything here is a pure function of
 * (cfg, shard index, the shard's request subsequence).
 */
class ShardWorker
{
  public:
    ShardWorker(const ServiceConfig &cfg, size_t shard, const CodePtr &code,
                unsigned steal_window)
        : cfg(cfg), sched(cfg.ports, steal_window),
          shardBase(shardSeed(cfg.seed, shard)),
          golden(cfg.totalWords() / cfg.shards, 0),
          written(golden.size(), 0)
    {
        // A TwoDimArray must not move once built (its line codec
        // refers to its own interleave map), hence the unique_ptrs.
        banks.reserve(cfg.banksPerShard);
        for (size_t b = 0; b < cfg.banksPerShard; ++b)
            banks.push_back(std::make_unique<TwoDimArray>(cfg.bank, code));
    }

    void
    serveOne(const ServiceRequest &req, RequestOutcome *outcome)
    {
        // Ticks clamp forward: the port model is monotonic.
        const uint64_t t = std::max(req.tick, clock);
        runBackgroundUpTo(t);
        sched.advanceTo(t);
        clock = t;

        ++rep.counters.requests;
        uint64_t latency = 0;
        RequestOutcome out;
        const size_t local = req.address / cfg.shards;
        const Cell cell = locate(local);
        if (req.op == RequestOp::kRead) {
            ++rep.counters.reads;
            const unsigned delay = sched.issueDemand();
            rep.counters.portDelay += delay;
            uint64_t sweep_reads = 0;
            const AccessResult res = readTracked(cell, sweep_reads);
            rep.counters.recoveryRowReads += sweep_reads;
            latency = kAccessLatency + delay + sweep_reads;

            out.status = res.status;
            if (!res.ok()) {
                ++rep.counters.due;
            } else {
                const BitVector expected =
                    written[local] ? expandValue(golden[local],
                                                 cfg.bank.wordBits)
                                   : BitVector(cfg.bank.wordBits);
                if (res.data != expected) {
                    out.silent = true;
                    ++rep.counters.sdc;
                } else if (res.status == DecodeStatus::kCorrected ||
                           sweep_reads != 0) {
                    ++rep.counters.corrected;
                }
            }
        } else {
            ++rep.counters.writes;
            // The 2D write is a read-before-write: the read half
            // steals an idle slot when one is in the window, else it
            // charges a demand slot; the write half always queues.
            if (sched.issueStolenRead() == 0)
                ++rep.counters.rbwAbsorbed;
            else
                ++rep.counters.rbwCharged;
            const unsigned delay = sched.issueDemand();
            rep.counters.portDelay += delay;
            latency = kAccessLatency + delay;
            banks[cell.bank]->writeWord(
                cell.row, cell.slot,
                expandValue(req.value, cfg.bank.wordBits));
            golden[local] = req.value;
            written[local] = 1;
        }
        rep.latency.add(latency);
        if (outcome) {
            out.latency = uint32_t(std::min<uint64_t>(latency,
                                                      0xffffffffULL));
            *outcome = out;
        }
    }

    ShardServiceReport
    finish()
    {
        for (const auto &bank : banks)
            rep.store += bank->stats();
        return std::move(rep);
    }

  private:
    /** Where one shard-local word lives. */
    struct Cell
    {
        size_t bank, row, slot;
    };

    /** Shard-local word @p local -> (bank, row, slot): consecutive
     *  words interleave across banks. */
    Cell
    locate(size_t local) const
    {
        const size_t in_bank = local / banks.size();
        const size_t slots = cfg.bank.interleaveDegree;
        return {local % banks.size(), in_bank / slots, in_bank % slots};
    }

    /** Read @p cell, tracking recovery-sweep row reads. */
    AccessResult
    readTracked(const Cell &cell, uint64_t &sweep_reads)
    {
        TwoDimArray &bank = *banks[cell.bank];
        const uint64_t before = bank.stats().recoveries;
        const AccessResult res = bank.readWord(cell.row, cell.slot);
        if (bank.stats().recoveries != before) {
            ++rep.counters.recoveries;
            sweep_reads = bank.lastRecovery().rowReads;
        }
        return res;
    }

    /** Fire every scrub/injection event scheduled at or before @p t. */
    void
    runBackgroundUpTo(uint64_t t)
    {
        // Merge the two periodic schedules in tick order; on a tie the
        // scrub step runs before the fault event (fixed, documented
        // order — determinism does not depend on the tie rule, only on
        // its consistency).
        while (true) {
            const uint64_t scrub_at =
                cfg.scrubInterval == 0
                    ? UINT64_MAX
                    : (scrubSteps + 1) * cfg.scrubInterval;
            const uint64_t fault_at =
                cfg.faultInterval == 0
                    ? UINT64_MAX
                    : (faultEvents + 1) * cfg.faultInterval;
            if (scrub_at > t && fault_at > t)
                return;
            if (scrub_at <= fault_at)
                scrubStep(scrub_at);
            else
                faultEvent(fault_at);
        }
    }

    /** Scrub one row (round-robin over banks x rows) at @p tick. */
    void
    scrubStep(uint64_t tick)
    {
        sched.advanceTo(std::max(tick, clock));
        clock = std::max(tick, clock);
        ++scrubSteps;
        ++rep.counters.scrubSteps;

        const size_t rows = cfg.bank.dataRows;
        const size_t global_row = (scrubSteps - 1) % (banks.size() * rows);
        const size_t bank = global_row / rows;
        const size_t row = global_row % rows;
        for (size_t slot = 0; slot < cfg.bank.interleaveDegree; ++slot) {
            // Background reads compete for ports like stolen RBW
            // reads: free when an idle slot is in the window.
            sched.issueStolenRead();
            uint64_t sweep_reads = 0;
            const AccessResult res =
                readTracked({bank, row, slot}, sweep_reads);
            if (!res.ok())
                ++rep.counters.scrubDue;
            else if (res.status == DecodeStatus::kCorrected ||
                     sweep_reads != 0)
                ++rep.counters.scrubRepairs;
        }
    }

    /** Inject one online fault event at @p tick. */
    void
    faultEvent(uint64_t tick)
    {
        sched.advanceTo(std::max(tick, clock));
        clock = std::max(tick, clock);
        // Event k draws from the injection-domain stream of this
        // shard's base — never colliding with scrub or workload
        // streams of the same campaign seed.
        Rng rng(shardSeed(shardBase, kSeedDomainInjection, faultEvents));
        ++faultEvents;
        ++rep.counters.faultEvents;
        FaultInjector inj(rng);
        const size_t bank = size_t(rng.nextBelow(banks.size()));
        inj.inject(banks[bank]->cells(), cfg.fault);
    }

    const ServiceConfig &cfg;
    std::vector<std::unique_ptr<TwoDimArray>> banks;
    PortScheduler sched;
    uint64_t shardBase;
    uint64_t clock = 0;
    uint64_t scrubSteps = 0;
    uint64_t faultEvents = 0;
    std::vector<uint64_t> golden;
    std::vector<char> written;
    ShardServiceReport rep;
};

} // namespace

ServiceReport
CacheService::serve(const std::vector<ServiceRequest> &requests) const
{
    // Validate every address up front so a bad stream leaves nothing
    // half-served.
    const size_t words = cfg.totalWords();
    for (size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].address >= words)
            throw std::out_of_range(
                "CacheService::serve: request " + std::to_string(i) +
                " address " + std::to_string(requests[i].address) +
                " >= " + std::to_string(words));
    }

    // Partition by address, preserving arrival order per shard.
    std::vector<std::vector<size_t>> byShard(cfg.shards);
    for (size_t i = 0; i < requests.size(); ++i)
        byShard[requests[i].address % cfg.shards].push_back(i);

    ServiceReport report;
    report.shards.resize(cfg.shards);
    if (cfg.recordOutcomes)
        report.outcomes.resize(requests.size());
    for (const ServiceRequest &r : requests)
        report.ticks = std::max(report.ticks, r.tick + 1);
    // No shard advances past the tick span (ticks only clamp forward,
    // and background events never pass the request tick), so a
    // steal-window ring that long never wraps. A longer window would
    // change no byte, only allocate one idle counter per cycle.
    const unsigned steal_window =
        unsigned(std::min<uint64_t>(cfg.stealWindow, report.ticks));

    // Each shard writes only its own report slot and its own outcome
    // slots, so the sweep is bit-identical at any pool size.
    parallelFor(cfg.shards, [&](size_t s) {
        ShardWorker worker(cfg, s, code, steal_window);
        for (size_t i : byShard[s])
            worker.serveOne(requests[i], cfg.recordOutcomes
                                             ? &report.outcomes[i]
                                             : nullptr);
        report.shards[s] = worker.finish();
    });

    for (const ShardServiceReport &shard : report.shards) {
        report.total.counters += shard.counters;
        report.total.latency += shard.latency;
        report.total.store += shard.store;
    }
    return report;
}

namespace
{

std::string
stealPct(const ServiceCounters &c)
{
    const uint64_t total = c.rbwAbsorbed + c.rbwCharged;
    return total == 0
               ? "-"
               : Table::pct(double(c.rbwAbsorbed) / double(total));
}

} // namespace

Table
serviceLatencyTable(const ServiceReport &report)
{
    Table t({"Shard", "Requests", "Reads", "Writes", "RBW stolen",
             "RBW charged", "Steal%", "p50", "p99", "p999", "max",
             "mean", "req/ktick"});
    const auto row = [&](const std::string &label,
                         const ShardServiceReport &r) {
        const double ktick =
            report.ticks == 0 ? 0.0
                              : 1000.0 * double(r.counters.requests) /
                                    double(report.ticks);
        t.addRow({label, std::to_string(r.counters.requests),
                  std::to_string(r.counters.reads),
                  std::to_string(r.counters.writes),
                  std::to_string(r.counters.rbwAbsorbed),
                  std::to_string(r.counters.rbwCharged),
                  stealPct(r.counters),
                  std::to_string(r.latency.p50()),
                  std::to_string(r.latency.p99()),
                  std::to_string(r.latency.p999()),
                  std::to_string(r.latency.max()),
                  Table::num(r.latency.mean(), 2),
                  Table::num(ktick, 1)});
    };
    for (size_t s = 0; s < report.shards.size(); ++s)
        row(std::to_string(s), report.shards[s]);
    row("all", report.total);
    return t;
}

Table
serviceReliabilityTable(const ServiceReport &report)
{
    Table t({"Shard", "Corrected", "DUE", "SDC", "Sweeps", "SweepReads",
             "ScrubSteps", "ScrubFix", "ScrubDUE", "Faults",
             "InlineFix", "RBW reads"});
    const auto row = [&](const std::string &label,
                         const ShardServiceReport &r) {
        t.addRow({label, std::to_string(r.counters.corrected),
                  std::to_string(r.counters.due),
                  std::to_string(r.counters.sdc),
                  std::to_string(r.counters.recoveries),
                  std::to_string(r.counters.recoveryRowReads),
                  std::to_string(r.counters.scrubSteps),
                  std::to_string(r.counters.scrubRepairs),
                  std::to_string(r.counters.scrubDue),
                  std::to_string(r.counters.faultEvents),
                  std::to_string(r.store.inlineCorrections),
                  std::to_string(r.store.readBeforeWrites)});
    };
    for (size_t s = 0; s < report.shards.size(); ++s)
        row(std::to_string(s), report.shards[s]);
    row("all", report.total);
    return t;
}

} // namespace tdc
