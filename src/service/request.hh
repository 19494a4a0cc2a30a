/**
 * @file
 * The request-level workload unit of the cache service: one timestamped
 * read or write aimed at a flat word address; the bounded RequestSource
 * every stream is served from, read once from start to end; and the
 * replayable binary trace format (TraceReader/TraceWriter) that pins a
 * stream of requests to disk byte-for-byte.
 *
 * Every source hands out its stream in blocks of at most kRequestBlock
 * requests, so serving, recording and replaying hold one block of the
 * stream at a time: memory is bounded by the block, never by the
 * stream's length. The vector adapters (readTrace, writeTrace) are thin
 * wrappers over the same block path.
 */

#ifndef TDC_SERVICE_REQUEST_HH
#define TDC_SERVICE_REQUEST_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/bit_vector.hh"

namespace tdc
{

/** Request kind. */
enum class RequestOp : uint8_t
{
    kRead = 0,
    kWrite = 1,
};

/**
 * One timestamped cache-service request. Addresses are flat word
 * indices into the served store; write payloads are carried as a
 * 64-bit value seed expanded to the store's word width by
 * expandValue(), so a request is 25 bytes on the wire regardless of
 * word size.
 */
struct ServiceRequest
{
    uint64_t tick = 0;    ///< arrival time, cycles
    RequestOp op = RequestOp::kRead;
    uint64_t address = 0; ///< flat word index
    uint64_t value = 0;   ///< write payload seed (ignored for reads)

    bool operator==(const ServiceRequest &) const = default;
};

/**
 * Expand a 64-bit payload seed to a @p bits -wide stored word. The
 * expansion is a pure function of (value, bits), so golden models and
 * the store agree on every byte without shipping wide payloads.
 */
BitVector expandValue(uint64_t value, size_t bits);

/** Requests per block of every RequestSource (not a knob). */
inline constexpr size_t kRequestBlock = size_t(1) << 16;

/**
 * A request stream read in blocks, once, from request 0 to the end.
 * The service checks each request as it serves it (CacheService::serve).
 */
class RequestSource
{
  public:
    RequestSource() = default;
    RequestSource(const RequestSource &) = delete;
    RequestSource &operator=(const RequestSource &) = delete;
    virtual ~RequestSource() = default;

    /** Requests in the stream. */
    virtual uint64_t size() const = 0;

    /**
     * The next block, at most kRequestBlock requests in arrival order;
     * empty once the stream is drained. Valid until the next call.
     */
    virtual std::span<const ServiceRequest> next() = 0;
};

/** Read all of @p source into one vector (the vector adapters). */
std::vector<ServiceRequest> drainRequests(RequestSource &source);

/** A vector served in blocks; the vector must outlive the source. */
class VectorRequestSource final : public RequestSource
{
  public:
    explicit VectorRequestSource(const std::vector<ServiceRequest> &requests)
        : requests(requests)
    {
    }

    uint64_t size() const override { return requests.size(); }
    std::span<const ServiceRequest> next() override;

  private:
    const std::vector<ServiceRequest> &requests;
    size_t pos = 0;
};

/**
 * Binary trace format, version 1: a 16-byte header ("TDCTRACE",
 * version u32, count u32) followed by one packed little-endian record
 * per request (tick u64, op u8, address u64, value u64 = 25 bytes).
 * Fixed little-endian byte order makes recorded traces portable and
 * the round trip byte-identical.
 */

/**
 * A recorded trace as a RequestSource. Opening checks the header and
 * that the body holds exactly the records the header promises; next()
 * reads one block with a plain stream read and throws on a malformed
 * op byte. The service reads a refused stream to its end before it
 * reports an address, so a trace's format errors come first.
 */
class TraceReader final : public RequestSource
{
  public:
    /**
     * Open the trace at @p path. @throws std::runtime_error when the
     * file is unreadable, and std::invalid_argument (offending detail
     * quoted) on a bad magic, unsupported version, or a body shorter
     * or longer than the header's count.
     */
    explicit TraceReader(const std::string &path);

    /** Read from the seekable stream @p in, which must outlive the
     *  reader. Throws as the path constructor does. */
    explicit TraceReader(std::istream &in);

    uint64_t size() const override { return count; }
    /** @throws std::invalid_argument on a malformed record. */
    std::span<const ServiceRequest> next() override;

  private:
    void readHeader();

    std::ifstream file; ///< open when reading by path
    std::istream &in;
    uint64_t count = 0;
    uint64_t consumed = 0; ///< records handed out so far
    std::vector<unsigned char> bytes;
    std::vector<ServiceRequest> block;
};

/**
 * Writes a trace block by block. The header carries @p count, and
 * commit() refuses a stream that appended any other number of
 * requests.
 */
class TraceWriter
{
  public:
    /**
     * Write to @p path through a temporary file beside it: commit()
     * renames it over @p path, and a writer destroyed uncommitted
     * removes it, so a failed run leaves no half-written trace and
     * @p path may be the trace being replayed.
     * @throws std::runtime_error when the file cannot be created
     */
    TraceWriter(const std::string &path, uint64_t count);

    /** Serialize onto @p out, which must outlive the writer. */
    TraceWriter(std::ostream &out, uint64_t count);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append @p requests after those already written. */
    void append(std::span<const ServiceRequest> requests);

    /** Finish the trace. @throws std::runtime_error on I/O or when
     *  the appended count differs from the header's. */
    void commit();

  private:
    void writeHeader();

    std::string path, tmpPath; ///< empty when writing to a stream
    std::ofstream file;
    std::ostream &out;
    uint64_t count = 0;
    uint64_t written = 0;
    bool committed = false;
    std::vector<unsigned char> bytes;
};

/** Write @p requests to @p path (a TraceWriter, committed).
 *  @throws std::runtime_error on I/O. */
void writeTrace(const std::string &path,
                const std::vector<ServiceRequest> &requests);

/** Serialize to a stream through a TraceWriter. */
void writeTrace(std::ostream &out,
                const std::vector<ServiceRequest> &requests);

/** Load a recorded trace (a TraceReader, drained). Throws as
 *  TraceReader does. */
std::vector<ServiceRequest> readTrace(const std::string &path);

/** Deserialize from a seekable stream (a TraceReader, drained). */
std::vector<ServiceRequest> readTrace(std::istream &in);

} // namespace tdc

#endif // TDC_SERVICE_REQUEST_HH
