/**
 * @file
 * The paper's primary contribution: a memory array protected by
 * two-dimensional error coding, with the multi-bit recovery process
 * of Figure 4(b).
 */

#ifndef TDC_CORE_TWOD_ARRAY_HH
#define TDC_CORE_TWOD_ARRAY_HH

#include <cstdint>
#include <vector>

#include "array/interleave.hh"
#include "array/memory_array.hh"
#include "array/protected_array.hh"
#include "core/line_codec.hh"
#include "core/twod_config.hh"
#include "core/vertical_parity.hh"
#include "ecc/code.hh"
#include "ecc/interleaved_parity.hh"

namespace tdc
{

/** Outcome of a 2D recovery attempt (the BIST/BISR-style sweep). */
struct RecoveryReport
{
    /** Whether the array was restored to a fully clean state. */
    bool success = false;

    /** Rows reconstructed via the vertical (row XOR) path. */
    std::vector<size_t> rowsReconstructed;

    /** Columns repaired via the column-location path. */
    std::vector<size_t> columnsRepaired;

    /**
     * Number of array row reads the sweep issued. The paper likens
     * recovery latency to a BIST march over the bank; cycles are
     * proportional to this count.
     */
    uint64_t rowReads = 0;

    /** Whether the column path had to run. */
    bool usedColumnPath = false;
};

/** Aggregate statistics of a TwoDimArray instance. */
struct TwoDimStats
{
    uint64_t reads = 0;
    /** Words written: one per writeWord, wordsPerRow() per writeLine. */
    uint64_t writes = 0;
    /** Extra reads caused by writes: one per writeWord and one per
     *  writeLine (a whole line shares one read-before-write). */
    uint64_t readBeforeWrites = 0;
    uint64_t inlineCorrections = 0; ///< horizontal (SECDED) fixes
    /** Recoveries requested (and charged: lastRecovery().rowReads
     *  each), and how many of them failed. */
    uint64_t recoveries = 0;
    uint64_t recoveryFailures = 0;
    /**
     * Recovery sweeps actually executed. recover() replays, rather
     * than re-runs, a failed recovery that changed nothing for as long
     * as the bank stays unchanged, so recoverySweeps <= recoveries; the
     * difference is simulator work saved, not modelled latency. A work
     * counter only: no table renders it.
     */
    uint64_t recoverySweeps = 0;

    /**
     * readWord accesses served by borrowing the stored row by reference
     * (no copy) vs. those that had to materialize a copy because the
     * row carries a stuck-at overlay. On a fault-free bank every read
     * is a borrow: rowCopies == 0 is the allocation-free fast-path
     * invariant the tests pin down.
     */
    uint64_t rowBorrows = 0;
    uint64_t rowCopies = 0;

    /** Merge another shard (per-bank stats are summed field-wise, in
     *  bank order, so aggregates are independent of who ran where). */
    TwoDimStats &operator+=(const TwoDimStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        readBeforeWrites += o.readBeforeWrites;
        inlineCorrections += o.inlineCorrections;
        recoveries += o.recoveries;
        recoveryFailures += o.recoveryFailures;
        recoverySweeps += o.recoverySweeps;
        rowBorrows += o.rowBorrows;
        rowCopies += o.rowCopies;
        return *this;
    }

    bool operator==(const TwoDimStats &) const = default;
};

/**
 * 2D-protected array. Horizontal dimension: per-word code (EDCn or
 * SECDED) with physical bit interleaving, exactly as ProtectedArray.
 * Vertical dimension: V interleaved parity rows, updated incrementally
 * on every write via read-before-write.
 *
 * The guaranteed coverage (Section 3): any clustered error whose
 * footprint spans at most clusterHeightCoverage() rows is correctable
 * provided the horizontal code detects the per-word corruption (true
 * for any footprint at most degree x burst-detect width columns wide,
 * and for any single-bit-per-word corruption regardless of width). Errors
 * taller than V rows are additionally correctable when the vertical
 * syndrome can localize the faulty columns (tall-narrow bursts).
 */
class TwoDimArray
{
  public:
    explicit TwoDimArray(const TwoDimConfig &config);

    /**
     * A bank over an already-built horizontal code, which must be
     * config.horizontalKind over config.wordBits. Codes are immutable,
     * so every bank of a scheme (and every worker thread) can share
     * one instance.
     */
    TwoDimArray(const TwoDimConfig &config, CodePtr horizontal_code);

    const TwoDimConfig &config() const { return cfg; }
    size_t rows() const { return data.rows(); }
    size_t wordsPerRow() const { return map.degree(); }
    size_t dataBits() const { return horizontal->dataBits(); }

    /** Raw cell arrays, for fault injection. */
    MemoryArray &cells() { return data; }
    VerticalParity &vertical() { return parity; }
    const VerticalParity &vertical() const { return parity; }

    /** Interleave geometry (physical column <-> word/bit mapping). */
    const InterleaveMap &interleave() const { return map; }

    /** The horizontal per-word code. */
    const Code &code() const { return *horizontal; }

    /**
     * Write @p value into word @p slot of row @p row. Performs the
     * read-before-write and the incremental vertical parity update.
     */
    void writeWord(size_t row, size_t slot, const BitVector &value);

    /**
     * Store a whole encoded line into row @p row in one access:
     * @p line_bits holds wordsPerRow() codewords interleaved as
     * LineCodec::encodeLine lays them out. One read-before-write, one
     * row write and one vertical parity delta, counted in stats() as
     * one readBeforeWrites and wordsPerRow() writes. On a row without
     * stuck-at cells the resulting data and parity equal those of
     * wordsPerRow() writeWord calls storing the same words.
     */
    void writeLine(size_t row, const BitVector &line_bits);

    /**
     * Read word @p slot of row @p row. Horizontal-clean reads return
     * immediately (the error-free fast path). A horizontal correction
     * (SECDED single-bit) is applied in line, *including* the vertical
     * parity maintenance for the flipped bits. A horizontal detection
     * triggers the full 2D recovery sweep and then retries once.
     */
    AccessResult readWord(size_t row, size_t slot);

    /**
     * Run the Figure 4(b) recovery process over the whole bank:
     * reconstruct faulty rows from their vertical parity group; if a
     * group holds multiple faulty rows, fall back to the column-
     * location path. Clears transient faults it repairs; stuck-at
     * cells will re-corrupt on the next write (as in hardware).
     *
     * A failed sweep that changed neither cell array is a fixed point:
     * until cells() or vertical().cells() changes (MemoryArray::
     * version()), every further call would repeat it exactly, so it
     * returns the same report without sweeping again. The call is still
     * counted and charged as a recovery; only stats().recoverySweeps
     * tells the two apart.
     */
    RecoveryReport recover();

    /**
     * Background scrub pass: decode every word, fixing what the
     * horizontal code corrects and invoking recovery if needed.
     * Returns true iff the bank ends clean.
     */
    bool scrub();

    /** Verify every word decodes clean (no repair side effects). */
    bool verifyClean() const;

    /** Storage overhead of both dimensions combined. */
    double storageOverhead() const;

    const TwoDimStats &stats() const { return stat; }

    /** Report of the most recent recovery (empty if none yet). */
    const RecoveryReport &lastRecovery() const { return lastReport; }

  private:
    /** Decode every slot of @p row_bits; true iff all slots clean or
     *  correctable. @p any_detect set if any slot is uncorrectable. */
    bool rowHealthy(const BitVector &row_bits, bool &any_detect) const;

    /** Row-path reconstruction of @p row from its parity group.
     *  Returns false if another faulty row shares the group. */
    bool reconstructRow(size_t row, RecoveryReport &report);

    /** Column-location path for errors spanning more than V rows. */
    bool recoverViaColumns(RecoveryReport &report);

    /** Horizontal-correct a whole row in place (SECDED horizontal);
     *  maintains vertical parity. Returns false if any slot is
     *  uncorrectable. */
    bool inlineCorrectRow(size_t row);

    TwoDimConfig cfg;
    CodePtr horizontal;
    InterleaveMap map;
    /** Batched row-granular codec over (horizontal, map); the sweep
     *  paths (rowHealthy / verifyClean / inlineCorrectRow) go through
     *  it so clean rows cost one fused check instead of a slot loop. */
    LineCodec line;
    MemoryArray data;
    VerticalParity parity;
    TwoDimStats stat;
    RecoveryReport lastReport;
    /** Cell-array epochs at which lastReport is a failed fixed point;
     *  valid only while failedAtFixedPoint. */
    bool failedAtFixedPoint = false;
    uint64_t fixedDataEpoch = 0;
    uint64_t fixedParityEpoch = 0;

    /**
     * Reusable scratch buffers for the access hot paths (readWord /
     * writeWord / writeLine) and the scrub sweep: row-sized and codeword-sized temporaries are built
     * once and recycled, so steady-state accesses allocate nothing.
     * Accesses are consequently not reentrant per instance — same as
     * the underlying stats, and matching the single-ported banks the
     * model represents.
     */
    BitVector rowScratch;
    BitVector deltaScratch;
    BitVector cwScratch;
};

} // namespace tdc

#endif // TDC_CORE_TWOD_ARRAY_HH
