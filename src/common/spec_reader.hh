/**
 * @file
 * The one reader of spec tokens and command-line numbers.
 *
 * Every grammar (scheme, fault, request stream, FIT mix, spec pattern,
 * CMP protection) splits its text with splitSpec, and every number in
 * them, in a tdc_run flag or in TDC_THREADS is read by a SpecReader,
 * so one decimal rule holds everywhere:
 *
 *   digits ::= [0-9]+                                   (digits)
 *   real   ::= [+-]? ([0-9]+ ("." [0-9]*)? | "." [0-9]+)
 *              ([eE] [+-]? [0-9]+)?                     (count, real)
 *
 * No whitespace, hex, "inf" or "nan" is accepted, a count must be a
 * whole number, and every value is checked against the caller's range
 * (NaN and out-of-range exponents included). A malformed or
 * out-of-range token throws std::invalid_argument quoting it under
 * the caller's context: `scheme spec "conv:secded/i65": expected a
 * decimal integer in [1, 64], got "i65"`.
 */

#ifndef TDC_COMMON_SPEC_READER_HH
#define TDC_COMMON_SPEC_READER_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdc
{

/**
 * Split @p text at every occurrence of any character of
 * @p separators. Empty tokens are kept ("i4//vp32" has one), so a
 * grammar sees and refuses them; "" yields one empty token.
 */
std::vector<std::string> splitSpec(std::string_view text,
                                   std::string_view separators);

/**
 * Shortest decimal string that strtod parses back to exactly @p v —
 * the double printer every canonical spec / cache-key axis shares
 * (FaultModel density, FIT-mix scales, lifetime mission/scrub hours),
 * so equal doubles always map to one spelling and one cache entry.
 */
std::string exactDouble(double v);

/** Lower bound of a real range open at zero: (0, hi]. */
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/**
 * Bounded number readers under one error context. Each reads @p text
 * (by default the whole @p token) and throws std::invalid_argument
 * "<context>: expected ... in [lo, hi], got \"<token>\"" unless it
 * obeys the decimal rule above and lies in the inclusive range.
 */
class SpecReader
{
  public:
    /** @param context the message prefix: `scheme spec "..."`, a flag
     *  name such as "--events", or an environment variable. */
    explicit SpecReader(std::string context) : context(std::move(context))
    {
    }

    /** Throw std::invalid_argument "<context>: <what>". */
    [[noreturn]] void fail(const std::string &what) const;

    /** Plain decimal digits at full uint64 precision. */
    uint64_t digits(const std::string &token, std::string_view text,
                    uint64_t lo, uint64_t hi) const;
    uint64_t digits(const std::string &token, uint64_t lo,
                    uint64_t hi) const
    {
        return digits(token, token, lo, hi);
    }

    /** A whole number that may use scientific notation ("1e6"); read
     *  through a double, so @p hi is at most 2^53. */
    uint64_t count(const std::string &token, std::string_view text,
                   uint64_t lo, uint64_t hi) const;
    uint64_t count(const std::string &token, uint64_t lo,
                   uint64_t hi) const
    {
        return count(token, token, lo, hi);
    }

    /** A finite decimal real; @p lo = kAboveZero opens the range. */
    double real(const std::string &token, std::string_view text,
                double lo, double hi) const;
    double real(const std::string &token, double lo, double hi) const
    {
        return real(token, token, lo, hi);
    }

  private:
    [[noreturn]] void refuse(const std::string &token,
                             const std::string &kind,
                             const std::string &range) const;

    std::string context;
};

} // namespace tdc

#endif // TDC_COMMON_SPEC_READER_HH
