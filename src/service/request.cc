#include "service/request.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/stable_hash.hh"

namespace tdc
{

BitVector
expandValue(uint64_t value, size_t bits)
{
    BitVector word(bits);
    for (size_t w = 0; w < bits; w += 64) {
        const size_t len = std::min<size_t>(64, bits - w);
        // Slice w/64 of the expansion is its own counter-based stream
        // of the payload seed: pure in (value, bits), cheap, and every
        // slice differs.
        word.setSlice(w, BitVector(len, shardSeed(value, w / 64)));
    }
    return word;
}

namespace
{

constexpr char kMagic[8] = {'T', 'D', 'C', 'T', 'R', 'A', 'C', 'E'};
constexpr uint32_t kVersion = 1;
constexpr size_t kRecordBytes = 25; // tick u64 + op u8 + addr/value u64

[[noreturn]] void
traceError(const std::string &what)
{
    throw std::invalid_argument("trace: " + what);
}

} // namespace

void
writeTrace(std::ostream &out, const std::vector<ServiceRequest> &requests)
{
    std::string bytes;
    bytes.reserve(sizeof(kMagic) + 8 + requests.size() * kRecordBytes);
    bytes.append(kMagic, sizeof(kMagic));
    putU32(bytes, kVersion);
    putU32(bytes, uint32_t(requests.size()));
    for (const ServiceRequest &r : requests) {
        putU64(bytes, r.tick);
        bytes += char(uint8_t(r.op));
        putU64(bytes, r.address);
        putU64(bytes, r.value);
    }
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!out)
        throw std::runtime_error("trace: write failed");
}

void
writeTrace(const std::string &path,
           const std::vector<ServiceRequest> &requests)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("trace: cannot open \"" + path +
                                 "\" for writing");
    writeTrace(out, requests);
    out.flush();
    if (!out)
        throw std::runtime_error("trace: write to \"" + path +
                                 "\" failed");
}

std::vector<ServiceRequest>
readTrace(std::istream &in)
{
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (bytes.size() < sizeof(kMagic) + 8)
        traceError("file shorter than the 16-byte header");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        traceError("bad magic (expected \"TDCTRACE\")");
    const auto *p =
        reinterpret_cast<const unsigned char *>(bytes.data());
    const uint32_t version = getU32(p + 8);
    if (version != kVersion)
        traceError("unsupported version \"" + std::to_string(version) +
                   "\" (expected " + std::to_string(kVersion) + ")");
    const uint32_t count = getU32(p + 12);
    const size_t body = bytes.size() - sizeof(kMagic) - 8;
    if (body != size_t(count) * kRecordBytes)
        traceError("truncated body: header promises \"" +
                   std::to_string(count) + "\" records (" +
                   std::to_string(size_t(count) * kRecordBytes) +
                   " bytes), file carries " + std::to_string(body));

    std::vector<ServiceRequest> requests;
    requests.reserve(count);
    const unsigned char *rec = p + 16;
    for (uint32_t i = 0; i < count; ++i, rec += kRecordBytes) {
        ServiceRequest r;
        r.tick = getU64(rec);
        const uint8_t op = rec[8];
        if (op > uint8_t(RequestOp::kWrite))
            traceError("record " + std::to_string(i) +
                       ": malformed op byte \"" + std::to_string(op) +
                       "\"");
        r.op = RequestOp(op);
        r.address = getU64(rec + 9);
        r.value = getU64(rec + 17);
        requests.push_back(r);
    }
    return requests;
}

std::vector<ServiceRequest>
readTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace: cannot open \"" + path + "\"");
    return readTrace(in);
}

} // namespace tdc
