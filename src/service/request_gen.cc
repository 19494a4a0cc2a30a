#include "service/request_gen.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/spec_reader.hh"

namespace tdc
{

std::string
RequestStreamSpec::spec() const
{
    if (dist == RequestDist::kTrace)
        return "trace:" + tracePath;

    std::string out;
    switch (dist) {
      case RequestDist::kUniform: out = "uniform"; break;
      case RequestDist::kZipf:
        out = "zipf" + std::to_string(zipfHundredths);
        break;
      case RequestDist::kBurst:
        out = "burst" + std::to_string(burstLen);
        break;
      case RequestDist::kTrace: break; // handled above
    }
    out += "/n" + std::to_string(count);
    out += "/w" + std::to_string(writePct);
    if (dist == RequestDist::kBurst && burstGap != 0)
        out += "/g" + std::to_string(burstGap);
    return out;
}

RequestStreamSpec
parseRequestSpec(const std::string &spec)
{
    const SpecReader in("request spec \"" + spec + "\"");
    if (spec.rfind("trace:", 0) == 0) {
        RequestStreamSpec s;
        s.dist = RequestDist::kTrace;
        s.tracePath = spec.substr(6);
        if (s.tracePath.empty())
            in.fail("empty path after \"trace:\"");
        return s;
    }

    // Tokens separate on '/'; the first names the distribution.
    const std::vector<std::string> tokens = splitSpec(spec, "/");

    RequestStreamSpec s;
    const std::string &head = tokens.front();
    if (head == "uniform") {
        s.dist = RequestDist::kUniform;
    } else if (head.rfind("zipf", 0) == 0) {
        s.dist = RequestDist::kZipf;
        if (head.size() > 4)
            s.zipfHundredths = unsigned(in.digits(head, head.substr(4), 1, 99));
    } else if (head.rfind("burst", 0) == 0) {
        s.dist = RequestDist::kBurst;
        if (head.size() > 5)
            s.burstLen =
                size_t(in.digits(head, head.substr(5), 1, 1u << 20));
    } else {
        in.fail("unknown distribution \"" + head +
                "\" (uniform, zipf, burst, trace:<path>)");
    }

    for (size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok.rfind("n", 0) == 0) {
            s.count = size_t(in.count(tok, tok.substr(1), 1, 1000000000));
        } else if (tok.rfind("w", 0) == 0) {
            s.writePct = unsigned(in.digits(tok, tok.substr(1), 0, 100));
        } else if (tok.rfind("b", 0) == 0) {
            if (s.dist != RequestDist::kBurst)
                in.fail("\"" + tok + "\" only applies to burst streams");
            s.burstLen = size_t(in.digits(tok, tok.substr(1), 1, 1u << 20));
        } else if (tok.rfind("g", 0) == 0) {
            if (s.dist != RequestDist::kBurst)
                in.fail("\"" + tok + "\" only applies to burst streams");
            s.burstGap = size_t(in.digits(tok, tok.substr(1), 1, 1u << 30));
        } else {
            in.fail("unknown token \"" + tok + "\"");
        }
    }
    return s;
}

RequestGenerator::RequestGenerator(const RequestStreamSpec &spec,
                                   size_t words, uint64_t seed)
    : spec(spec), words(words), seed(seed),
      burstGap(spec.burstGap != 0 ? spec.burstGap : 4 * spec.burstLen),
      // Power-law skew exponent for the zipf approximation: drawing
      // u ~ U[0,1) and taking floor(words * u^k) concentrates mass
      // near address 0 with Zipf-like tail weight for k = 1/(1-theta).
      zipfK(1.0 / (1.0 - double(spec.zipfHundredths) / 100.0)),
      block(std::min<size_t>(spec.count, kRequestBlock))
{
    if (spec.dist == RequestDist::kTrace)
        throw std::invalid_argument(
            "RequestGenerator: a trace spec is read, not generated");
    if (words == 0)
        throw std::invalid_argument(
            "buildRequests: generator needs a nonzero address space");
}

ServiceRequest
RequestGenerator::make(uint64_t i) const
{
    // Request i is a pure function of its own workload-domain stream,
    // so requests can be made in any order on any thread (and the
    // stream never collides with injection/scrub consumers of the
    // same seed).
    Rng rng(shardSeed(seed, kSeedDomainWorkload, i));
    ServiceRequest r;
    switch (spec.dist) {
      case RequestDist::kUniform:
        r.tick = i;
        r.address = rng.nextBelow(words);
        break;
      case RequestDist::kZipf: {
        r.tick = i;
        const size_t rank =
            size_t(double(words) * std::pow(rng.nextDouble(), zipfK));
        // Scatter hot ranks over the space (and over banks/shards)
        // with a fixed mixing stride coprime to any power of two.
        r.address =
            (std::min(rank, words - 1) * 0x9e3779b97f4a7c15ULL) % words;
        break;
      }
      case RequestDist::kBurst: {
        const size_t burst = i / spec.burstLen;
        const size_t offset = i % spec.burstLen;
        // The burst base address is a pure function of the burst
        // index: every request of the burst derives it afresh.
        Rng base_rng(shardSeed(seed, kSeedDomainWorkload + 1, burst));
        r.tick = burst * burstGap + offset;
        r.address = (base_rng.nextBelow(words) + offset) % words;
        break;
      }
      case RequestDist::kTrace:
        break; // refused by the constructor
    }
    r.op = rng.nextBelow(100) < spec.writePct ? RequestOp::kWrite
                                              : RequestOp::kRead;
    r.value = rng.next();
    return r;
}

std::span<const ServiceRequest>
RequestGenerator::next()
{
    const size_t n = size_t(std::min<uint64_t>(kRequestBlock,
                                               spec.count - made));
    // The pool hands out one index at a time, so a block shards in
    // runs of requests: one per request would make every request a
    // contended atomic increment.
    constexpr size_t kRun = 1024;
    parallelFor((n + kRun - 1) / kRun, [&](size_t run) {
        const size_t end = std::min(n, (run + 1) * kRun);
        for (size_t k = run * kRun; k < end; ++k)
            block[k] = make(made + k);
    });
    made += n;
    return {block.data(), n};
}

std::unique_ptr<RequestSource>
openRequestSource(const RequestStreamSpec &spec, size_t words,
                  uint64_t seed)
{
    if (spec.dist == RequestDist::kTrace)
        return std::make_unique<TraceReader>(spec.tracePath);
    return std::make_unique<RequestGenerator>(spec, words, seed);
}

std::vector<ServiceRequest>
buildRequests(const RequestStreamSpec &spec, size_t words, uint64_t seed)
{
    return drainRequests(*openRequestSource(spec, words, seed));
}

} // namespace tdc
