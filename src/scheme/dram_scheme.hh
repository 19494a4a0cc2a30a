/**
 * @file
 * The "dram:" protection-scheme family: chipkill/DDC (rank-level
 * RS/SSC-DSD over per-chip symbols) and IECC+chipkill (per-chip
 * SEC-DED feeding chip erasures into the rank-level symbol code), on
 * the DramArray geometry. Listed in the scheme registry next to
 * conv/2d/wt/prod so campaign grids, --figure chipkill, the lifetime
 * engine and the --optimize search all reach it through spec strings:
 *
 *   dram     ::= "dram:" variant "/x" width opt*
 *   variant  ::= "chipkill" | "iecc+chipkill"
 *   width    ::= "4" | "8"         ; x4 -> 12+3 chips, x8 -> 8+3 chips
 *   opt      ::= "/r" rows-per-bank | "/b" banks | "/cols"
 *
 * "/cols" switches the lifetime repair units from spare chips to spare
 * columns (the spare-column repair granularity of the ROADMAP item).
 */

#ifndef TDC_SCHEME_DRAM_SCHEME_HH
#define TDC_SCHEME_DRAM_SCHEME_HH

#include "dram/dram_array.hh"
#include "scheme/scheme.hh"

namespace tdc
{

/** Configuration of one dram: scheme instance. */
struct DramSchemeConfig
{
    /** Per-chip SEC-DED in front of the rank-level symbol code. */
    bool iecc = false;

    DramGeometry geometry;

    /** Lifetime repair units: spare columns instead of spare chips. */
    bool columnRepair = false;
};

/** Build a chipkill-class scheme (the "dram:" family backend). */
SchemePtr makeDramScheme(const DramSchemeConfig &config);

/** The "dram" family entry (one of scheme.cc's built-ins). */
SchemeFamily dramSchemeFamily();

} // namespace tdc

#endif // TDC_SCHEME_DRAM_SCHEME_HH
