/**
 * @file
 * Fault descriptors and the fault injector: the error-event generator
 * used by every coverage and reliability experiment.
 */

#ifndef TDC_ARRAY_FAULT_HH
#define TDC_ARRAY_FAULT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "array/memory_array.hh"
#include "common/rng.hh"

namespace tdc
{

/** The error-event shapes discussed in the paper's Sections 1-3. */
enum class FaultShape
{
    /** One cell upset: the dominant soft-error event today. */
    kSingleBit,
    /** Contiguous horizontal burst in one row (wordline-direction). */
    kRowBurst,
    /** Contiguous vertical burst in one column (bitline-direction). */
    kColumnBurst,
    /**
     * Rectangular cluster: every cell inside a WxH footprint flips
     * with a given density (1.0 = solid block). Models single-event
     * multi-bit upsets from one particle strike.
     */
    kCluster,
    /** Entire physical row fails. */
    kFullRow,
    /** Entire physical column fails. */
    kFullColumn,
    /**
     * Whole-device failure: every cell of one symbol-wide chip column
     * group fails (DRAM chip kill; on a plain bit array the symbol
     * width is 1 and this degenerates to a full column).
     */
    kChipKill,
    /**
     * Row-hammer-style disturbance: a band of adjacent victim rows
     * across the full array width, each cell flipping with a given
     * activation-dependent density.
     */
    kRowHammer,
    /**
     * Sense-amplifier failure: a shared sense amp serves a bitline
     * pair, so two adjacent columns fail together over a window of
     * rows.
     */
    kSenseAmp,
};

/** Soft (transient) vs hard (persistent stuck-at) manifestation. */
enum class FaultPersistence
{
    kTransient,
    kStuckAt,
};

/** One injected fault event with its ground-truth footprint. */
struct FaultEvent
{
    FaultShape shape = FaultShape::kSingleBit;
    FaultPersistence persistence = FaultPersistence::kTransient;

    /** Affected cells (row, col), the ground truth for verification. */
    std::vector<std::pair<size_t, size_t>> cells;

    /** Bounding box (inclusive) of the footprint. */
    size_t rowLo = 0, rowHi = 0, colLo = 0, colHi = 0;

    size_t width() const { return colHi - colLo + 1; }
    size_t height() const { return rowHi - rowLo + 1; }

    std::string describe() const;
};

/**
 * Declarative fault-event description: the shape x footprint x density
 * axis of an injection campaign, decoupled from any concrete array so
 * campaign grids and batch recovery APIs can carry it by value. Feed
 * it to FaultInjector::inject to realize one event.
 */
struct FaultModel
{
    FaultShape shape = FaultShape::kCluster;
    FaultPersistence persistence = FaultPersistence::kTransient;

    /** Footprint in physical columns (row direction). Ignored by
     *  single-bit / column-burst / full-row / full-column shapes. */
    size_t width = 1;

    /** Footprint in rows (column direction). Ignored by single-bit /
     *  row-burst / full-row / full-column shapes. */
    size_t height = 1;

    /** Per-cell flip probability inside a cluster footprint. */
    double density = 1.0;

    /** Anchor (top-left) of the footprint; -1 = uniform random draw
     *  at injection time. */
    long rowLo = -1;
    long colLo = -1;

    static FaultModel singleBit();
    static FaultModel rowBurst(size_t width);
    static FaultModel columnBurst(size_t height);
    static FaultModel cluster(size_t width, size_t height,
                              double density = 1.0);
    static FaultModel fullRow();
    static FaultModel fullColumn();

    /** Whole-chip kill; @p chip = -1 draws a random chip. The chip
     *  index rides in colLo (it selects a symbol group, not a cell). */
    static FaultModel chipKill(long chip = -1);

    /** Row-hammer band of @p rows victim rows, per-cell density. */
    static FaultModel rowHammer(size_t rows, double density = 1.0);

    /** Sense-amp failure: 2 adjacent columns x @p height rows. */
    static FaultModel senseAmp(size_t height);

    /** Short label for campaign tables, e.g. "32x32" for clusters. */
    std::string describe() const;

    /**
     * Canonical spec string: the campaign result cache's key axis. For
     * grammar-representable models this is exactly the parseFaultModel
     * spelling and round-trips (parseFaultModel(m.spec()).spec() ==
     * m.spec()); models the grammar cannot express — fixed anchors,
     * stuck-at persistence — append "/@<row>,<col>" and "/hard"
     * suffixes so distinct models never share a cache entry. Density
     * is printed with just enough digits to round-trip exactly.
     */
    std::string spec() const;
};

/**
 * Shortest decimal string that strtod parses back to exactly @p v —
 * the double printer every canonical spec / cache-key axis shares
 * (FaultModel density, FIT-mix scales, lifetime mission/scrub hours),
 * so equal doubles always map to one spelling and one cache entry.
 */
std::string exactDouble(double v);

/**
 * Parse a fault-model spec string (the --fault axis of the tdc_run
 * driver):
 *
 *   single            one-cell upset (uniform random position)
 *   row:W             W-bit horizontal burst
 *   col:H             H-bit vertical burst
 *   WxH               solid WxH cluster  (e.g. "32x32")
 *   WxH@D             WxH cluster, per-cell flip probability D in (0,1]
 *   fullrow           an entire physical row
 *   fullcol           an entire physical column
 *   chip:I            kill chip I (whole symbol column group)
 *   chip:any          kill a uniformly random chip
 *   hammer:W          row-hammer band of W victim rows (solid)
 *   hammer:W@D        row-hammer band, per-cell flip probability D
 *   senseamp:H        sense-amp failure: 2 adjacent columns x H rows
 *
 * Malformed specs or out-of-range footprints throw
 * std::invalid_argument quoting the offending token.
 */
FaultModel parseFaultModel(const std::string &spec);

/**
 * Injects fault events into a MemoryArray. Transient events flip the
 * stored state; stuck-at events install overlay faults with the
 * complement of the current stored value (so they are observable).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(Rng &rng) : rng(rng) {}

    /** Flip/stick one random cell. */
    FaultEvent injectSingleBit(MemoryArray &arr,
                               FaultPersistence p =
                                   FaultPersistence::kTransient);

    /** Contiguous burst of @p width cells in row @p row at a random
     *  start (or @p col_lo if >= 0). */
    FaultEvent injectRowBurst(MemoryArray &arr, size_t row, size_t width,
                              long col_lo = -1,
                              FaultPersistence p =
                                  FaultPersistence::kTransient);

    /** Contiguous burst of @p height cells in column @p col. */
    FaultEvent injectColumnBurst(MemoryArray &arr, size_t col,
                                 size_t height, long row_lo = -1,
                                 FaultPersistence p =
                                     FaultPersistence::kTransient);

    /**
     * WxH rectangular cluster at a random (or given) anchor; each cell
     * in the footprint flips with probability @p density, but the
     * event is re-rolled until at least one cell in every spanned row
     * flips (so width/height describe the real footprint).
     */
    FaultEvent injectCluster(MemoryArray &arr, size_t width, size_t height,
                             double density = 1.0, long row_lo = -1,
                             long col_lo = -1,
                             FaultPersistence p =
                                 FaultPersistence::kTransient);

    /** Fail an entire row. */
    FaultEvent injectFullRow(MemoryArray &arr, size_t row,
                             FaultPersistence p =
                                 FaultPersistence::kTransient);

    /** Fail an entire column. */
    FaultEvent injectFullColumn(MemoryArray &arr, size_t col,
                                FaultPersistence p =
                                    FaultPersistence::kTransient);

    /**
     * Kill chip @p chip: every cell in its symbolBits()-wide column
     * group, over all rows. @p chip = -1 draws a random chip.
     */
    FaultEvent injectChipKill(MemoryArray &arr, long chip = -1,
                              FaultPersistence p =
                                  FaultPersistence::kTransient);

    /**
     * Row-hammer band: @p rows adjacent victim rows (clamped to the
     * array) across the full width, each cell flipping with
     * probability @p density, re-rolled until at least one cell flips.
     */
    FaultEvent injectRowHammer(MemoryArray &arr, size_t rows,
                               double density = 1.0, long row_lo = -1,
                               FaultPersistence p =
                                   FaultPersistence::kTransient);

    /**
     * Sense-amp failure: two adjacent columns (or one, on a 1-column
     * array) over @p height rows (clamped to the array).
     */
    FaultEvent injectSenseAmp(MemoryArray &arr, size_t height,
                              long row_lo = -1, long col_lo = -1,
                              FaultPersistence p =
                                  FaultPersistence::kTransient);

    /**
     * Realize one @p model event: dispatch to the shape-specific
     * injector, drawing any unanchored coordinates from the RNG.
     */
    FaultEvent inject(MemoryArray &arr, const FaultModel &model);

  private:
    void applyCell(MemoryArray &arr, size_t r, size_t c,
                   FaultPersistence p, FaultEvent &event);

    Rng &rng;
};

} // namespace tdc

#endif // TDC_ARRAY_FAULT_HH
