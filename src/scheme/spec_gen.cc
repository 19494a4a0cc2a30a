#include "scheme/spec_gen.hh"

#include <cstdint>
#include <stdexcept>
#include <unordered_set>

#include "common/spec_reader.hh"

namespace tdc
{

namespace
{

[[noreturn]] void
patternError(const std::string &what, const std::string &token)
{
    throw std::invalid_argument(what + " \"" + token + "\"");
}

/** Expand one brace-group body (text between '{' and '}'). */
std::vector<std::string>
expandGroup(const std::string &body)
{
    const std::string group = "{" + body + "}";
    const size_t dots = body.find("..");
    if (dots == std::string::npos) {
        // Alternatives: {a,b,c}. Empty alternatives are typos.
        std::vector<std::string> out = splitSpec(body, ",");
        for (const std::string &alt : out)
            if (alt.empty())
                patternError("empty alternative in group", group);
        return out;
    }

    // Range: lo..hi[..+K | ..xK], bounds and step plain decimal digits.
    const SpecReader in("range group \"" + group + "\"");
    const std::string lo_tok = body.substr(0, dots);
    std::string rest = body.substr(dots + 2);
    const size_t dots2 = rest.find("..");
    const bool stepped = dots2 != std::string::npos;
    const std::string step_tok = stepped ? rest.substr(dots2 + 2) : "";
    if (stepped)
        rest = rest.substr(0, dots2);
    const uint64_t lo = in.digits(lo_tok, 0, UINT64_MAX);
    const uint64_t hi = in.digits(rest, 0, UINT64_MAX);
    if (lo > hi)
        patternError("range group expects lo <= hi, got", group);

    bool multiplicative = false;
    uint64_t step = 1;
    if (stepped) {
        // A second ".." needs a step after it: {1..4..} is refused,
        // not read as {1..4}.
        multiplicative = !step_tok.empty() && step_tok[0] == 'x';
        if (!multiplicative && (step_tok.empty() || step_tok[0] != '+'))
            patternError("range step expects +K or xK, got", group);
        step = in.digits(step_tok, step_tok.substr(1),
                         multiplicative ? 2 : 1, UINT64_MAX);
    }

    std::vector<std::string> out;
    for (uint64_t v = lo;;) {
        out.push_back(std::to_string(v));
        if (out.size() > kMaxSpecExpansion)
            patternError("range group expands past the grid limit,", group);
        // Stop before the next value would pass hi (or wrap); 0 * K
        // never advances.
        if (multiplicative ? v == 0 || v > hi / step : hi - v < step)
            break;
        v = multiplicative ? v * step : v + step;
    }
    return out;
}

} // namespace

std::vector<std::string>
expandSpecPattern(const std::string &pattern)
{
    std::vector<std::string> specs{""};
    size_t pos = 0;
    while (pos < pattern.size()) {
        const size_t open = pattern.find_first_of("{}", pos);
        if (open == std::string::npos) {
            for (std::string &s : specs)
                s += pattern.substr(pos);
            break;
        }
        if (pattern[open] == '}')
            patternError("unmatched '}' in pattern", pattern);
        const size_t close = pattern.find_first_of("{}", open + 1);
        if (close == std::string::npos || pattern[close] != '}')
            patternError("unmatched '{' in pattern", pattern);

        const std::string prefix = pattern.substr(pos, open - pos);
        const std::vector<std::string> values =
            expandGroup(pattern.substr(open + 1, close - open - 1));

        if (specs.size() * values.size() > kMaxSpecExpansion)
            patternError("pattern expands past the grid limit of " +
                             std::to_string(kMaxSpecExpansion) + " specs:",
                         pattern);
        std::vector<std::string> next;
        next.reserve(specs.size() * values.size());
        for (const std::string &head : specs)
            for (const std::string &v : values)
                next.push_back(head + prefix + v);
        specs = std::move(next);
        pos = close + 1;
    }
    if (pattern.empty())
        patternError("empty spec pattern", pattern);
    return specs;
}

std::vector<std::string>
expandSpecPatterns(const std::vector<std::string> &patterns)
{
    std::vector<std::string> out;
    std::unordered_set<std::string> seen;
    for (const std::string &pattern : patterns) {
        for (std::string &spec : expandSpecPattern(pattern)) {
            if (seen.insert(spec).second)
                out.push_back(std::move(spec));
        }
    }
    return out;
}

} // namespace tdc
