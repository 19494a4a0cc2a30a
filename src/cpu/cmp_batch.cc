#include "cpu/cmp_batch.hh"

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
    parallelFor(specs.size(), [&](size_t i) {
        const CmpRunSpec &spec = specs[i];
        results[i] = unpackCmp(cache.memoize(
            cmpRunCacheKey(spec, cycles),
            [&] {
                CmpSimulator sim(spec.machine, spec.workload,
                                 spec.protection, spec.seed);
                return packCmp(sim.run(cycles));
            },
            kCmpInts, 0));
    });
    return results;
}

} // namespace tdc
