#include "service/request.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>

#include <unistd.h>

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

std::vector<ServiceRequest>
drainRequests(RequestSource &source)
{
    std::vector<ServiceRequest> requests;
    requests.reserve(source.size());
    for (auto block = source.next(); !block.empty(); block = source.next())
        requests.insert(requests.end(), block.begin(), block.end());
    return requests;
}

std::span<const ServiceRequest>
VectorRequestSource::next()
{
    const size_t n = std::min(kRequestBlock, requests.size() - pos);
    const std::span<const ServiceRequest> block(requests.data() + pos, n);
    pos += n;
    return block;
}

namespace
{

constexpr char kMagic[8] = {'T', 'D', 'C', 'T', 'R', 'A', 'C', 'E'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 8; // + version, count
constexpr size_t kRecordBytes = 25; // tick u64 + op u8 + addr/value u64

[[noreturn]] void
traceError(const std::string &what)
{
    throw std::invalid_argument("trace: " + what);
}

} // namespace

TraceReader::TraceReader(const std::string &path)
    : file(path, std::ios::binary), in(file)
{
    if (!file)
        throw std::runtime_error("trace: cannot open \"" + path + "\"");
    readHeader();
}

TraceReader::TraceReader(std::istream &in) : in(in)
{
    readHeader();
}

void
TraceReader::readHeader()
{
    unsigned char header[kHeaderBytes];
    in.read(reinterpret_cast<char *>(header), kHeaderBytes);
    if (size_t(in.gcount()) < kHeaderBytes)
        traceError("file shorter than the 16-byte header");
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        traceError("bad magic (expected \"TDCTRACE\")");
    const uint32_t version = getU32(header + 8);
    if (version != kVersion)
        traceError("unsupported version \"" + std::to_string(version) +
                   "\" (expected " + std::to_string(kVersion) + ")");
    count = getU32(header + 12);

    // The body size comes from the stream's end, so a truncated or
    // overlong trace is refused before any record is read.
    const std::streamoff bodyStart = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    if (bodyStart < 0 || end < 0)
        throw std::runtime_error("trace: stream is not seekable");
    const uint64_t body = uint64_t(end - bodyStart);
    if (body != count * kRecordBytes)
        traceError("truncated body: header promises \"" +
                   std::to_string(count) + "\" records (" +
                   std::to_string(count * kRecordBytes) +
                   " bytes), file carries " + std::to_string(body));
    const size_t capacity = size_t(std::min<uint64_t>(count, kRequestBlock));
    bytes.resize(capacity * kRecordBytes);
    block.resize(capacity);
    in.seekg(bodyStart);
}

std::span<const ServiceRequest>
TraceReader::next()
{
    const size_t n = size_t(std::min<uint64_t>(kRequestBlock,
                                               count - consumed));
    if (n == 0)
        return {};
    in.read(reinterpret_cast<char *>(bytes.data()),
            std::streamsize(n * kRecordBytes));
    if (size_t(in.gcount()) != n * kRecordBytes)
        throw std::runtime_error("trace: read failed");
    const unsigned char *rec = bytes.data();
    for (size_t i = 0; i < n; ++i, rec += kRecordBytes) {
        ServiceRequest &r = block[i];
        r.tick = getU64(rec);
        const uint8_t op = rec[8];
        if (op > uint8_t(RequestOp::kWrite))
            traceError("record " + std::to_string(consumed + i) +
                       ": malformed op byte \"" + std::to_string(op) +
                       "\"");
        r.op = RequestOp(op);
        r.address = getU64(rec + 9);
        r.value = getU64(rec + 17);
    }
    consumed += n;
    return {block.data(), n};
}

TraceWriter::TraceWriter(const std::string &path, uint64_t count)
    : path(path),
      tmpPath(path + ".tmp." + std::to_string(uint64_t(getpid()))),
      file(tmpPath, std::ios::binary | std::ios::trunc), out(file),
      count(count)
{
    if (!file)
        throw std::runtime_error("trace: cannot open \"" + path +
                                 "\" for writing");
    writeHeader();
}

TraceWriter::TraceWriter(std::ostream &out, uint64_t count)
    : out(out), count(count)
{
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    if (!committed && !tmpPath.empty()) {
        file.close();
        std::error_code ec;
        std::filesystem::remove(tmpPath, ec);
    }
}

void
TraceWriter::writeHeader()
{
    std::string header(kMagic, sizeof(kMagic));
    putU32(header, kVersion);
    putU32(header, uint32_t(count));
    out.write(header.data(), std::streamsize(header.size()));
}

void
TraceWriter::append(std::span<const ServiceRequest> requests)
{
    while (!requests.empty()) {
        const size_t n = std::min(kRequestBlock, requests.size());
        bytes.resize(n * kRecordBytes);
        unsigned char *rec = bytes.data();
        for (size_t i = 0; i < n; ++i, rec += kRecordBytes) {
            const ServiceRequest &r = requests[i];
            storeU64(rec, r.tick);
            rec[8] = uint8_t(r.op);
            storeU64(rec + 9, r.address);
            storeU64(rec + 17, r.value);
        }
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  std::streamsize(bytes.size()));
        written += n;
        requests = requests.subspan(n);
    }
}

void
TraceWriter::commit()
{
    if (written != count)
        throw std::runtime_error(
            "trace: header promises " + std::to_string(count) +
            " records, " + std::to_string(written) + " were written");
    out.flush();
    if (!out)
        throw std::runtime_error(
            path.empty() ? std::string("trace: write failed")
                         : "trace: write to \"" + path + "\" failed");
    if (!tmpPath.empty()) {
        file.close();
        std::error_code ec;
        if (file)
            std::filesystem::rename(tmpPath, path, ec);
        if (!file || ec)
            throw std::runtime_error("trace: write to \"" + path +
                                     "\" failed");
    }
    committed = true;
}

void
writeTrace(std::ostream &out, const std::vector<ServiceRequest> &requests)
{
    TraceWriter writer(out, requests.size());
    writer.append(requests);
    writer.commit();
}

void
writeTrace(const std::string &path,
           const std::vector<ServiceRequest> &requests)
{
    TraceWriter writer(path, requests.size());
    writer.append(requests);
    writer.commit();
}

std::vector<ServiceRequest>
readTrace(std::istream &in)
{
    TraceReader reader(in);
    return drainRequests(reader);
}

std::vector<ServiceRequest>
readTrace(const std::string &path)
{
    TraceReader reader(path);
    return drainRequests(reader);
}

} // namespace tdc
