#include "reliability/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#ifdef _WIN32
#include <process.h>
#define TDC_GETPID _getpid
#else
#include <unistd.h>
#define TDC_GETPID getpid
#endif

#include "common/stable_hash.hh"

namespace tdc
{

std::string
InjectionOutcome::verdict() const
{
    if (silent == trials && trials > 0)
        return "SILENT corruption";
    if (silent > 0)
        return "NOT covered";
    if (corrected == trials)
        return "corrected";
    if (corrected > 0)
        return "partially corrected";
    return "detected only";
}

std::string
InjectionOutcome::summary() const
{
    return verdict() + " " + std::to_string(corrected) + "/" +
           std::to_string(trials);
}

std::string
CacheStats::describe() const
{
    return std::to_string(hits()) + " hits (" +
           std::to_string(memoryHits) + " memory, " +
           std::to_string(diskHits) + " disk), " +
           std::to_string(misses) + " misses, " + std::to_string(stored) +
           " stored, " + std::to_string(corrupt) + " corrupt";
}

namespace
{

// On-disk entry layout (all integers little-endian):
//   magic[8] "TDCRCACH"
//   u32 version          format salt (ResultCache::kFormatVersion)
//   u32 keyLen,  key bytes    full canonical key (collision guard)
//   u32 nInts,   u32 nReals
//   i64 ints[nInts]
//   u64 realBits[nReals]      IEEE-754 bit patterns, bit-exact
//   u64 digestHi, u64 digestLo    StableHash of every preceding byte
constexpr char kMagic[8] = {'T', 'D', 'C', 'R', 'C', 'A', 'C', 'H'};
constexpr size_t kMaxVectorLen = 1u << 20;

std::string
serializeEntry(const std::string &key, const ResultCache::Record &record)
{
    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    putU32(buf, ResultCache::kFormatVersion);
    putU32(buf, uint32_t(key.size()));
    buf += key;
    putU32(buf, uint32_t(record.ints.size()));
    putU32(buf, uint32_t(record.reals.size()));
    for (int64_t v : record.ints)
        putU64(buf, uint64_t(v));
    for (double v : record.reals) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(buf, bits);
    }
    StableHash h;
    h.updateBytes(buf.data(), buf.size());
    const StableDigest d = h.digest();
    putU64(buf, d.hi);
    putU64(buf, d.lo);
    return buf;
}

/** Parse @p buf back into (key, record); false = corrupt or stale. */
bool
parseEntry(const std::string &buf, const std::string &expected_key,
           ResultCache::Record &record)
{
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buf.data());
    size_t off = 0;
    const auto need = [&](size_t n) { return off + n <= buf.size(); };

    if (!need(sizeof(kMagic) + 4) ||
        std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        return false;
    off = sizeof(kMagic);
    if (getU32(p + off) != ResultCache::kFormatVersion)
        return false; // stale format: recompute under the new salt
    off += 4;

    if (!need(4))
        return false;
    const uint32_t key_len = getU32(p + off);
    off += 4;
    if (key_len > kMaxVectorLen || !need(key_len))
        return false;
    if (std::string_view(buf.data() + off, key_len) != expected_key)
        return false; // digest collision or foreign entry
    off += key_len;

    if (!need(8))
        return false;
    const uint32_t n_ints = getU32(p + off);
    const uint32_t n_reals = getU32(p + off + 4);
    off += 8;
    if (n_ints > kMaxVectorLen || n_reals > kMaxVectorLen)
        return false;
    const size_t payload = 8 * (size_t(n_ints) + size_t(n_reals));
    if (buf.size() != off + payload + 16)
        return false; // truncated (or trailing garbage)

    StableHash h;
    h.updateBytes(buf.data(), off + payload);
    const StableDigest d = h.digest();
    if (d.hi != getU64(p + off + payload) ||
        d.lo != getU64(p + off + payload + 8))
        return false;

    record.ints.clear();
    record.reals.clear();
    record.ints.reserve(n_ints);
    record.reals.reserve(n_reals);
    for (uint32_t i = 0; i < n_ints; ++i, off += 8)
        record.ints.push_back(int64_t(getU64(p + off)));
    for (uint32_t i = 0; i < n_reals; ++i, off += 8) {
        const uint64_t bits = getU64(p + off);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        record.reals.push_back(v);
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

void
ResultCache::setDirectory(std::string dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = std::move(dir);
}

std::string
ResultCache::entryFileName(const std::string &key)
{
    return stableHash(key).hex() + ".tdcr";
}

std::optional<ResultCache::Record>
ResultCache::loadFromDisk(const std::string &key)
{
    // Caller holds mutex_ (dir_ and stats_ are touched).
    if (dir_.empty())
        return std::nullopt;
    const std::filesystem::path path =
        std::filesystem::path(dir_) / entryFileName(key);
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return std::nullopt;
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return std::nullopt;
    Record record;
    if (!parseEntry(buf, key, record)) {
        ++stats_.corrupt;
        return std::nullopt;
    }
    return record;
}

void
ResultCache::storeToDisk(const std::string &key, const Record &record)
{
    // Caller holds mutex_. Best-effort: I/O failures (read-only dir,
    // disk full) silently leave the disk tier behind — the in-memory
    // tier and the computed result are unaffected.
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return;
    const std::filesystem::path final_path =
        std::filesystem::path(dir_) / entryFileName(key);
    // Unique temp name per writer, then an atomic rename: two
    // processes sharing --cache-dir never expose a torn entry, and
    // the last full write wins (both wrote identical bytes anyway).
    static std::atomic<uint64_t> counter{0};
    const std::filesystem::path tmp_path =
        final_path.string() + ".tmp." +
        std::to_string(uint64_t(TDC_GETPID())) + "." +
        std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        if (!out.is_open())
            return;
        const std::string buf = serializeEntry(key, record);
        out.write(buf.data(), std::streamsize(buf.size()));
        if (!out.good()) {
            out.close();
            std::filesystem::remove(tmp_path, ec);
            return;
        }
    }
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec)
        std::filesystem::remove(tmp_path, ec);
    else
        ++stats_.stored;
}

std::optional<ResultCache::Record>
ResultCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
        ++stats_.memoryHits;
        return it->second;
    }
    if (std::optional<Record> rec = loadFromDisk(key)) {
        ++stats_.diskHits;
        memory_.emplace(key, *rec);
        return rec;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
ResultCache::store(const std::string &key, const Record &record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    memory_[key] = record;
    storeToDisk(key, record);
}

std::optional<ResultCache::Record>
ResultCache::lookup(const std::string &key, size_t num_ints,
                    size_t num_reals)
{
    std::optional<Record> rec = lookup(key);
    if (!rec || (rec->ints.size() == num_ints &&
                 rec->reals.size() == num_reals))
        return rec;
    // Width mismatch (a foreign record type under this key): report
    // it absent rather than fabricate values.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    return std::nullopt;
}

ResultCache::Record
ResultCache::memoize(const std::string &key,
                     const std::function<Record()> &compute,
                     size_t num_ints, size_t num_reals)
{
    if (std::optional<Record> rec = lookup(key, num_ints, num_reals))
        return *rec;
    // Compute outside the lock: the evaluator may itself parallelFor,
    // and racing threads at worst duplicate a pure computation.
    const Record fresh = compute();
    store(key, fresh);
    return fresh;
}

InjectionOutcome
ResultCache::outcome(const std::string &key,
                     const std::function<InjectionOutcome()> &compute)
{
    const Record rec = memoize(
        key,
        [&] {
            const InjectionOutcome o = compute();
            return Record{
                {o.trials, o.corrected, o.detectedOnly, o.silent}, {}};
        },
        4, 0);
    InjectionOutcome o;
    o.trials = int(rec.ints[0]);
    o.corrected = int(rec.ints[1]);
    o.detectedOnly = int(rec.ints[2]);
    o.silent = int(rec.ints[3]);
    return o;
}

std::vector<double>
ResultCache::reals(const std::string &key, size_t count,
                   const std::function<std::vector<double>()> &compute)
{
    return memoize(key, [&] { return Record{{}, compute()}; }, 0, count)
        .reals;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = CacheStats{};
}

void
ResultCache::clearMemory()
{
    std::lock_guard<std::mutex> lock(mutex_);
    memory_.clear();
}

ResultCache &
resultCache()
{
    static ResultCache cache = [] {
        const char *dir = std::getenv("TDC_CACHE_DIR");
        return ResultCache(dir != nullptr ? dir : "");
    }();
    return cache;
}

std::string
injectionCacheKey(const std::string &scheme_spec,
                  const std::string &fault_spec, int trials, uint64_t seed)
{
    return "inject|scheme=" + scheme_spec + "|fault=" + fault_spec +
           "|trials=" + std::to_string(trials) +
           "|seed=" + std::to_string(seed);
}

} // namespace tdc
