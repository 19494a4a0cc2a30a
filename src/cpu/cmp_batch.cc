#include "cpu/cmp_batch.hh"

#include <algorithm>
#include <bit>

#include "common/parallel.hh"
#include "common/spec_reader.hh"
#include "reliability/result_cache.hh"

namespace tdc
{

namespace
{

std::string
field(const char *name, const std::string &value)
{
    return std::string(",") + name + "=" + value;
}

std::string
field(const char *name, unsigned value)
{
    return field(name, std::to_string(value));
}

std::string
field(const char *name, double value)
{
    return field(name, exactDouble(value));
}

std::string
field(const char *name, bool value)
{
    return field(name, std::string(value ? "1" : "0"));
}

ResultCache::Record
packCmp(const CmpSimResult &r)
{
    return ResultCache::Record{
        {int64_t(r.cycles), int64_t(r.instructions),
         int64_t(r.l1ReadsData), int64_t(r.l1Writes),
         int64_t(r.l1FillEvict), int64_t(r.l1ExtraReads),
         int64_t(r.l1DirtyTransfers), int64_t(r.l2ReadsInst),
         int64_t(r.l2ReadsData), int64_t(r.l2Writes),
         int64_t(r.l2FillEvict), int64_t(r.l2ExtraReads)},
        {}};
}

constexpr size_t kCmpInts = 12;

CmpSimResult
unpackCmp(const ResultCache::Record &rec)
{
    CmpSimResult r;
    r.cycles = uint64_t(rec.ints[0]);
    r.instructions = uint64_t(rec.ints[1]);
    r.l1ReadsData = uint64_t(rec.ints[2]);
    r.l1Writes = uint64_t(rec.ints[3]);
    r.l1FillEvict = uint64_t(rec.ints[4]);
    r.l1ExtraReads = uint64_t(rec.ints[5]);
    r.l1DirtyTransfers = uint64_t(rec.ints[6]);
    r.l2ReadsInst = uint64_t(rec.ints[7]);
    r.l2ReadsData = uint64_t(rec.ints[8]);
    r.l2Writes = uint64_t(rec.ints[9]);
    r.l2FillEvict = uint64_t(rec.ints[10]);
    r.l2ExtraReads = uint64_t(rec.ints[11]);
    return r;
}

/** Ring bytes one matched set may hold, over all its streams. */
constexpr size_t kSetRingBytes = 128 * 1024;

/** One run of a matched set. */
struct Member
{
    size_t spec;        ///< index into the batch's specs
    CmpSimulator sim;
    unsigned width;     ///< instructions a cycle reads per stream, at most
    uint64_t left;      ///< cycles still to simulate
    std::vector<bool> alone; ///< per stream: reads a private fork
};

/**
 * Instructions @p m may still read from shared stream @p k before it
 * could overwrite one that another reader has not read: a reader at
 * position p generates up to p - 1, and generating instruction h
 * overwrites h - capacity, so the slowest other reader's position
 * bounds p at floor + capacity. UINT64_MAX when nobody else reads it.
 */
uint64_t
room(const Member &m, size_t k, const std::vector<Member> &members,
     uint64_t capacity)
{
    const uint64_t pos = m.sim.streamPosition(k);
    if (pos == UINT64_MAX || m.alone[k])
        return UINT64_MAX;
    uint64_t room = UINT64_MAX;
    for (const Member &other : members) {
        if (&other == &m || other.left == 0 || other.alone[k])
            continue;
        const uint64_t floor = other.sim.streamPosition(k);
        if (floor != UINT64_MAX)
            room = std::min(room, floor + capacity - pos);
    }
    return room;
}

/**
 * Simulate the runs specs[i], i in @p set, which read the same
 * instruction streams, each for @p cycles cycles, into results[i].
 *
 * Each stream is generated once into a ring shared by the set. The
 * runs take turns; a turn runs as many cycles as every shared stream
 * has room for, at issueWidth instructions a cycle, so a run a
 * capacity's worth ahead of a stream's slowest reader sits its turn
 * out. Running in pieces is exact: run(a) + run(b) equals
 * run(a + b). When every run is held back (each ahead of another on
 * some stream), the first unfinished run forks the first stream that
 * holds it back and reads that fork alone from then on.
 */
void
simulateSet(const std::vector<CmpRunSpec> &specs,
            const std::vector<size_t> &set, uint64_t cycles,
            std::vector<CmpSimResult> &results)
{
    const CmpRunSpec &lead = specs[set[0]];
    if (set.size() == 1) {
        CmpSimulator sim(lead.machine, lead.workload, lead.protection,
                         lead.seed);
        results[set[0]] = sim.run(cycles);
        return;
    }
    const size_t streams =
        size_t(lead.machine.cores) * lead.machine.threadsPerCore;
    unsigned widest = 1;
    for (size_t i : set)
        widest = std::max(widest, specs[i].machine.issueWidth);
    const uint64_t capacity = std::bit_ceil(std::max<uint64_t>(
        kSetRingBytes / sizeof(uint64_t) / streams, widest));
    std::vector<StreamRing> rings = CmpSimulator::streams(
        lead.machine, lead.workload, lead.seed, capacity);
    std::vector<StreamRing *> shared;
    for (StreamRing &ring : rings)
        shared.push_back(&ring);

    std::vector<Member> members;
    members.reserve(set.size());
    for (size_t i : set)
        members.push_back(
            {i, CmpSimulator(specs[i].machine, specs[i].protection, shared),
             specs[i].machine.issueWidth, cycles,
             std::vector<bool>(streams)});
    size_t unfinished = cycles == 0 ? 0 : members.size();
    while (unfinished > 0) {
        bool ran = false;
        for (Member &m : members) {
            uint64_t n = m.left;
            for (size_t k = 0; k < streams && n > 0; ++k)
                n = std::min(n, room(m, k, members, capacity) / m.width);
            if (n == 0)
                continue;
            results[m.spec] = m.sim.run(n);
            m.left -= n;
            unfinished -= m.left == 0;
            ran = true;
        }
        if (!ran) {
            Member &m = *std::find_if(
                members.begin(), members.end(),
                [](const Member &x) { return x.left > 0; });
            size_t k = 0;
            while (room(m, k, members, capacity) >= m.width)
                ++k;
            m.sim.detachStream(k);
            m.alone[k] = true;
        }
    }
}

} // namespace

std::string
cmpRunCacheKey(const CmpRunSpec &spec, uint64_t cycles)
{
    const CmpConfig &m = spec.machine;
    const WorkloadProfile &w = spec.workload;
    const ProtectionConfig &p = spec.protection;
    // Strings go last in their group: a name holding ',' or '=' then
    // cannot make two different field lists spell the same key.
    std::string key = "cmp/v" + std::to_string(kCmpRecordVersion);
    key += "|machine" + field("cores", m.cores) +
           field("issue", m.issueWidth) + field("ooo", m.outOfOrder) +
           field("threads", m.threadsPerCore) + field("rob", m.robSize) +
           field("sq", m.storeQueue) + field("l1ports", m.l1Ports) +
           field("l1hit", m.l1HitLatency) + field("l2banks", m.l2Banks) +
           field("l2hit", m.l2HitLatency) +
           field("l2busy", m.l2BankBusy) +
           field("loaduse", m.loadUseSlots) +
           field("bubble", m.bubbleScale) +
           field("steal", m.stealWindow) + field("mem", m.memLatency) +
           field("mshrs", m.mshrs) + field("name", m.name);
    key += "|workload" + field("load", w.loadFrac) +
           field("store", w.storeFrac) + field("l1i", w.l1iMissRate) +
           field("l1d", w.l1dMissRate) + field("l2", w.l2MissRate) +
           field("dirty", w.dirtyEvictFrac) +
           field("shared", w.dirtySharedFrac) +
           field("ilp", w.ilpBubbleProb) + field("on", w.burstOnProb) +
           field("off", w.burstOffProb) +
           field("boost", w.burstLoadBoost) +
           field("sci", w.scientific) + field("name", w.name);
    key += "|protection" + field("l1", p.l1TwoDim) +
           field("steal", p.l1PortStealing) + field("l2", p.l2TwoDim) +
           field("wt", p.l1WriteThrough);
    key += "|seed=" + std::to_string(spec.seed) +
           "|cycles=" + std::to_string(cycles);
    return key;
}

std::vector<CmpSimResult>
runCmpBatch(const std::vector<CmpRunSpec> &specs, uint64_t cycles)
{
    std::vector<CmpSimResult> results(specs.size());
    ResultCache &cache = resultCache();

    // Look every run up first; only the misses simulate. A run listed
    // twice simulates once and is then read back from the cache.
    std::vector<std::string> keys;
    std::vector<size_t> repeats;
    std::vector<std::vector<size_t>> sets;
    for (size_t i = 0; i < specs.size(); ++i) {
        keys.push_back(cmpRunCacheKey(specs[i], cycles));
        if (std::find(specs.begin(), specs.begin() + i, specs[i]) !=
            specs.begin() + i) {
            repeats.push_back(i);
            continue;
        }
        if (std::optional<ResultCache::Record> rec =
                cache.lookup(keys[i], kCmpInts, 0)) {
            results[i] = unpackCmp(*rec);
            continue;
        }
        // Matched set: the runs whose threads read the same streams.
        const CmpRunSpec &s = specs[i];
        const auto same = [&](const std::vector<size_t> &set) {
            const CmpRunSpec &t = specs[set[0]];
            return size_t(s.machine.cores) * s.machine.threadsPerCore ==
                       size_t(t.machine.cores) * t.machine.threadsPerCore &&
                   s.workload == t.workload && s.seed == t.seed;
        };
        const auto set = std::find_if(sets.begin(), sets.end(), same);
        if (set == sets.end())
            sets.push_back({i});
        else
            set->push_back(i);
    }

    // One matched set per task, so results do not depend on the
    // thread count.
    parallelFor(sets.size(), [&](size_t s) {
        simulateSet(specs, sets[s], cycles, results);
        for (size_t i : sets[s])
            cache.store(keys[i], packCmp(results[i]));
    });
    for (size_t i : repeats)
        results[i] = unpackCmp(cache.lookup(keys[i], kCmpInts, 0).value());
    return results;
}

} // namespace tdc
