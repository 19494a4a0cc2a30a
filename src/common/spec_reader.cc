#include "common/spec_reader.hh"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tdc
{

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** The real rule of the file comment, parsed; false if @p text breaks
 *  it. Overflowing exponents parse to +-inf for the range to refuse. */
bool
parseReal(std::string_view text, double &v)
{
    size_t i = 0, mantissa = 0;
    const auto skipDigits = [&] {
        const size_t from = i;
        while (i < text.size() && isDigit(text[i]))
            ++i;
        return i - from;
    };
    if (i < text.size() && (text[i] == '+' || text[i] == '-'))
        ++i;
    mantissa += skipDigits();
    if (i < text.size() && text[i] == '.') {
        ++i;
        mantissa += skipDigits();
    }
    if (mantissa == 0)
        return false;
    if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
        ++i;
        if (i < text.size() && (text[i] == '+' || text[i] == '-'))
            ++i;
        if (skipDigits() == 0)
            return false;
    }
    if (i != text.size())
        return false;
    v = std::strtod(std::string(text).c_str(), nullptr);
    return true;
}

std::string
intRange(uint64_t lo, uint64_t hi)
{
    return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

} // namespace

std::vector<std::string>
splitSpec(std::string_view text, std::string_view separators)
{
    std::vector<std::string> tokens;
    size_t start = 0;
    for (;;) {
        const size_t end = text.find_first_of(separators, start);
        tokens.emplace_back(text.substr(start, end - start));
        if (end == std::string_view::npos)
            return tokens;
        start = end + 1;
    }
}

std::string
exactDouble(double v)
{
    char buf[64];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
SpecReader::fail(const std::string &what) const
{
    throw std::invalid_argument(context + ": " + what);
}

void
SpecReader::refuse(const std::string &token, const std::string &kind,
                   const std::string &range) const
{
    fail("expected " + kind + " in " + range + ", got \"" + token + "\"");
}

uint64_t
SpecReader::digits(const std::string &token, std::string_view text,
                   uint64_t lo, uint64_t hi) const
{
    uint64_t v = 0;
    bool fits = !text.empty();
    for (const char c : text) {
        if (!isDigit(c) || v > (UINT64_MAX - uint64_t(c - '0')) / 10) {
            fits = false;
            break;
        }
        v = v * 10 + uint64_t(c - '0');
    }
    if (!fits || v < lo || v > hi)
        refuse(token, "a decimal integer", intRange(lo, hi));
    return v;
}

uint64_t
SpecReader::count(const std::string &token, std::string_view text,
                  uint64_t lo, uint64_t hi) const
{
    assert(hi <= uint64_t(1) << 53);
    double v = 0.0;
    if (!parseReal(text, v) || v != std::floor(v) || !(v >= double(lo)) ||
        !(v <= double(hi)))
        refuse(token, "a whole number", intRange(lo, hi));
    return uint64_t(v);
}

double
SpecReader::real(const std::string &token, std::string_view text,
                 double lo, double hi) const
{
    double v = 0.0;
    if (!parseReal(text, v) || !(v >= lo && v <= hi))
        refuse(token, "a decimal number",
               (lo == kAboveZero ? "(0" : "[" + exactDouble(lo)) + ", " +
                   exactDouble(hi) + "]");
    return v;
}

} // namespace tdc
