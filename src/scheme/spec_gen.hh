/**
 * @file
 * Spec-pattern expansion for the --optimize design-space search: one
 * pattern string with brace groups expands into the cartesian grid of
 * concrete spec strings it denotes.
 *
 * Group forms (no nesting):
 *
 *   {a,b,c}          literal alternatives
 *   {lo..hi}         integers lo, lo+1, ..., hi
 *   {lo..hi..+K}     integers lo, lo+K, ... while <= hi
 *   {lo..hi..xK}     integers lo, lo*K, ... while <= hi
 *
 * lo, hi and K are plain decimal digits at uint64 precision (no sign,
 * space or hex: the common/spec_reader.hh rule), and a range stops
 * before a value past hi. A second ".." must be followed by a step:
 * {1..4..} is refused.
 *
 * Example: "2d:edc{8,16,32}/i{1..8..x2}+vp{16,32,64}" expands to
 * 3 x 4 x 3 = 36 scheme specs. Groups expand left-to-right with the
 * leftmost varying slowest, so the output order is deterministic.
 *
 * Malformed patterns (unbalanced braces, empty alternatives, bad range
 * bounds or steps, oversized grids) throw std::invalid_argument
 * quoting the offending token.
 */

#ifndef TDC_SCHEME_SPEC_GEN_HH
#define TDC_SCHEME_SPEC_GEN_HH

#include <string>
#include <vector>

namespace tdc
{

/** Grid-size guard: one pattern may expand to at most this many
 *  specs (a design-space search beyond this is a typo, not a plan). */
constexpr size_t kMaxSpecExpansion = 65536;

/** Expand one pattern into its concrete spec strings (at least one:
 *  a pattern with no groups expands to itself). */
std::vector<std::string> expandSpecPattern(const std::string &pattern);

/**
 * Expand every pattern and concatenate, dropping duplicate specs
 * (first occurrence wins) so overlapping patterns do not evaluate the
 * same design point twice.
 */
std::vector<std::string>
expandSpecPatterns(const std::vector<std::string> &patterns);

} // namespace tdc

#endif // TDC_SCHEME_SPEC_GEN_HH
