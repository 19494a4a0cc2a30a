/**
 * @file
 * Synthetic request-stream generators and the trace/generator spec
 * grammar — the --serve axis of the tdc_run driver:
 *
 *   spec     ::= "trace:" path | dist opt*
 *   dist     ::= "uniform" | "zipf" [hundredths] | "burst" [length]
 *   opt      ::= "/n" count | "/w" write-pct | "/b" burst-len
 *              | "/g" burst-gap
 *
 *   uniform            addresses i.i.d. uniform, one arrival per tick
 *   zipf / zipf90      power-law skew toward hot addresses
 *                      (theta = hundredths/100, default zipf80)
 *   burst / burst128   back-to-back runs of consecutive addresses,
 *                      idle gap between bursts (port-steal fodder)
 *   trace:<path>       replay a recorded binary trace verbatim
 *
 *   /n<count>          requests (scientific notation ok, default 1e5)
 *   /w<pct>            write percentage 0..100 (default 30)
 *   /b<len>            burst length (burst only, default 64)
 *   /g<gap>            ticks from burst start to burst start
 *                      (burst only, default 4 * burst length)
 *
 * The count is a whole decimal number in [1, 1e9]; every other number
 * is plain decimal digits (the common/spec_reader.hh rule: no space,
 * hex or "nan"). Like the scheme/fault grammars, malformed specs throw
 * std::invalid_argument quoting the offending token, and spec() of a
 * parsed generator round-trips. Generation of request i is a pure
 * function of (spec, words, seed, i) — workload-domain counter
 * streams, never shared state — so streams are reproducible
 * everywhere and identical at any TDC_THREADS.
 */

#ifndef TDC_SERVICE_REQUEST_GEN_HH
#define TDC_SERVICE_REQUEST_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hh"

namespace tdc
{

/** Distribution kinds of the synthetic generators. */
enum class RequestDist
{
    kUniform,
    kZipf,
    kBurst,
    kTrace, ///< replay from tracePath, no synthesis
};

/** Parsed --serve spec: either a generator shape or a trace path. */
struct RequestStreamSpec
{
    RequestDist dist = RequestDist::kUniform;
    size_t count = 100000;   ///< requests to generate
    unsigned writePct = 30;  ///< write percentage, 0..100
    unsigned zipfHundredths = 80; ///< theta * 100, zipf only
    size_t burstLen = 64;    ///< burst length, burst only
    size_t burstGap = 0;     ///< burst-start stride; 0 = 4 * burstLen
    std::string tracePath;   ///< trace only

    /** Canonical spec string; parseRequestSpec(spec()) round-trips. */
    std::string spec() const;

    bool operator==(const RequestStreamSpec &) const = default;
};

/**
 * Parse a --serve spec. Throws std::invalid_argument quoting the
 * offending token on unknown distributions, malformed numbers, or
 * out-of-range values.
 */
RequestStreamSpec parseRequestSpec(const std::string &spec);

/**
 * Materialize the stream: synthesize spec.count requests over the
 * address space [0, words), or load spec.tracePath for trace specs
 * (then @p words / @p seed are ignored; the trace replays verbatim).
 * Ticks are non-decreasing. @p words must be nonzero for generators.
 */
std::vector<ServiceRequest> buildRequests(const RequestStreamSpec &spec,
                                          size_t words, uint64_t seed);

} // namespace tdc

#endif // TDC_SERVICE_REQUEST_GEN_HH
