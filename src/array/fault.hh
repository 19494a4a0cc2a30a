/**
 * @file
 * Fault descriptors and the fault injector: the error-event generator
 * used by every coverage and reliability experiment.
 */

#ifndef TDC_ARRAY_FAULT_HH
#define TDC_ARRAY_FAULT_HH

#include <cstddef>
#include <string>

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

/** Where one injected event landed: its bounding box (inclusive). */
struct FaultEvent
{
    size_t rowLo = 0, rowHi = 0, colLo = 0, colHi = 0;
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

    /** Footprint in physical columns (row direction). Read by row
     *  bursts and clusters only; clipped to the array's width. */
    size_t width = 1;

    /** Footprint in rows (column direction). Read by column bursts,
     *  clusters, hammer bands and sense amps; clipped to the array's
     *  height. */
    size_t height = 1;

    /** Per-cell flip probability inside a cluster or hammer band. */
    double density = 1.0;

    /** Anchor (top-left) of the footprint; -1 = uniform random draw
     *  at injection time (see FaultInjector::inject). */
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
 * Footprints W, H and the chip index I are plain decimal digits
 * (W, H in [1, 65536], I in [0, 65535]); a density D is a finite
 * decimal number, so "nan", "inf", hex and padded values are refused
 * (the common/spec_reader.hh rule). Malformed specs or out-of-range
 * values throw std::invalid_argument quoting the spec.
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

    /**
     * Realize one @p model event, the only way faults are placed.
     *
     * Placement turns the shape into a rectangle clipped to the
     * array: a footprint taller or wider than the array covers all of
     * it. Each anchor is drawn uniformly over the positions where the
     * clipped rectangle fits (a column burst draws its column first,
     * every other shape its row first); a fixed anchor is reduced
     * modulo that count. Axes a shape spans whole draw nothing, and a
     * single bit always draws its cell.
     *
     * Apply flips or sticks the rectangle's cells. Clusters and hammer
     * bands flip each cell with the model's density: a cluster
     * re-rolls until every spanned row is hit, a hammer band until
     * the event is non-empty.
     *
     * Returns the placed rectangle.
     */
    FaultEvent inject(MemoryArray &arr, const FaultModel &model);

  private:
    Rng &rng;
};

} // namespace tdc

#endif // TDC_ARRAY_FAULT_HH
