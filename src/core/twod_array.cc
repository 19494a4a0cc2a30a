#include "core/twod_array.hh"

#include <cassert>
#include <set>
#include <utility>

namespace tdc
{

TwoDimArray::TwoDimArray(const TwoDimConfig &config)
    : TwoDimArray(config, makeCode(config.horizontalKind, config.wordBits))
{
}

TwoDimArray::TwoDimArray(const TwoDimConfig &config,
                         CodePtr horizontal_code)
    : cfg(config),
      horizontal(std::move(horizontal_code)),
      map(horizontal->codewordBits(), cfg.interleaveDegree),
      line(*horizontal, map),
      data(cfg.dataRows, map.rowBits()),
      parity(cfg.dataRows, map.rowBits(), cfg.verticalParityRows)
{
    assert(horizontal->dataBits() == cfg.wordBits);
}

void
TwoDimArray::writeWord(size_t row, size_t slot, const BitVector &value)
{
    assert(value.size() == horizontal->dataBits());
    // Step 1 (Figure 4(a)): read old data and vertical parity. The
    // read-before-write is what the cache-level performance study
    // charges for.
    data.readRowInto(row, rowScratch);
    ++stat.readBeforeWrites;

    // Step 2: write new data & horizontal code, and fold old ^ new
    // into the vertical parity row — all through recycled scratch
    // buffers, no per-access row temporaries.
    deltaScratch = rowScratch; // old row
    map.depositWord(rowScratch, slot, horizontal->encode(value));
    data.writeRow(row, rowScratch);
    deltaScratch ^= rowScratch; // old ^ new
    parity.applyDelta(row, deltaScratch);
    ++stat.writes;
}

void
TwoDimArray::writeLine(size_t row, const BitVector &line_bits)
{
    assert(line_bits.size() == map.rowBits());
    // writeWord for a whole row at once: one read-before-write, the
    // new line stored, old ^ new folded into the parity row.
    data.readRowInto(row, deltaScratch);
    ++stat.readBeforeWrites;
    data.writeRow(row, line_bits);
    deltaScratch ^= line_bits;
    parity.applyDelta(row, deltaScratch);
    stat.writes += map.degree();
}

AccessResult
TwoDimArray::readWord(size_t row, size_t slot)
{
    ++stat.reads;
    // Error-free fast path: borrow the stored row and gather the
    // codeword straight out of it — the only per-access work is the
    // strided extract plus the horizontal syndrome. Rows carrying
    // a stuck-at overlay are materialized through the scratch buffer.
    if (!data.rowHasStuck(row)) {
        map.extractWordInto(data.viewRow(row), slot, cwScratch);
        ++stat.rowBorrows;
    } else {
        data.readRowInto(row, rowScratch);
        map.extractWordInto(rowScratch, slot, cwScratch);
        ++stat.rowCopies;
    }
    DecodeResult decoded = horizontal->decode(cwScratch);

    AccessResult result;
    result.status = decoded.status;
    result.data = std::move(decoded.data);

    if (result.status == DecodeStatus::kClean)
        return result;

    if (result.status == DecodeStatus::kCorrected) {
        // In-line horizontal correction (SECDED path): repair the
        // stored copy. The row was already read above — on the borrow
        // path re-materialize it without charging a second port
        // access; on the stuck path rowScratch still holds it. The
        // vertical parity is *not* updated: it already reflects the
        // intended (pre-error) value, which is exactly what the
        // correction restores. Errors never update parity; only
        // genuine value-changing writes do.
        if (!data.rowHasStuck(row))
            data.copyRowInto(row, rowScratch);
        map.depositWord(rowScratch, slot, horizontal->encode(result.data));
        data.writeRow(row, rowScratch);
        ++stat.inlineCorrections;
        return result;
    }

    // Horizontal detection without correction: enter 2D recovery mode
    // and retry the access once.
    const RecoveryReport report = recover();
    DecodeResult retry =
        horizontal->decode(map.extractWord(data.readRow(row), slot));
    result.status = report.success && !retry.uncorrectable()
                        ? retry.status
                        : DecodeStatus::kDetectedUncorrectable;
    result.data = std::move(retry.data);
    return result;
}

bool
TwoDimArray::rowHealthy(const BitVector &row_bits, bool &any_detect) const
{
    any_detect = false;
    // Fast path: a row whose every syndrome vanishes is healthy with
    // no further questions — the common case in every sweep.
    if (line.lineClean(row_bits))
        return true;
    for (size_t slot = 0; slot < map.degree(); ++slot) {
        const DecodeResult d =
            horizontal->decode(map.extractWord(row_bits, slot));
        if (d.uncorrectable()) {
            any_detect = true;
            return false;
        }
    }
    return true;
}

bool
TwoDimArray::inlineCorrectRow(size_t row)
{
    data.readRowInto(row, rowScratch);
    bool changed = false;
    if (!line.correctLine(rowScratch, changed))
        return false;
    if (changed) {
        // Corrections restore the value the parity already accounts
        // for, so no parity delta is applied (see readWord).
        data.writeRow(row, rowScratch);
    }
    return true;
}

bool
TwoDimArray::reconstructRow(size_t row, RecoveryReport &report)
{
    // Figure 4(b) main loop: Correction starts as the parity row and
    // absorbs every *other* row of the group; the XOR of all of them
    // is the original content of the faulty row.
    const size_t g = parity.groupOf(row);
    BitVector correction = parity.readGroup(g);

    for (size_t r = g; r < rows(); r += parity.groups()) {
        if (r == row)
            continue;
        const BitVector other = data.readRow(r);
        ++report.rowReads;
        bool detect = false;
        if (!rowHealthy(other, detect)) {
            // Another faulty row shares this parity group: the error
            // spans more than V rows; the row path cannot help.
            return false;
        }
        correction ^= other;
    }

    data.writeRow(row, correction);
    ++report.rowReads;

    // Verify the reconstruction: every slot must now decode.
    bool detect = false;
    if (!rowHealthy(data.readRow(row), detect))
        return false;
    // Clear any horizontal-correctable residue (stuck cells under
    // SECDED horizontal).
    inlineCorrectRow(row);
    report.rowsReconstructed.push_back(row);
    return true;
}

bool
TwoDimArray::recoverViaColumns(RecoveryReport &report)
{
    report.usedColumnPath = true;

    // Locate suspect columns: a column is suspect if any parity group
    // sees a vertical mismatch in it (odd number of corrupted cells
    // among the group's rows).
    BitVector suspects(map.rowBits());
    for (size_t g = 0; g < parity.groups(); ++g) {
        BitVector acc = parity.readGroup(g);
        for (size_t r = g; r < rows(); r += parity.groups()) {
            acc ^= data.readRow(r);
            ++report.rowReads;
        }
        suspects |= acc;
    }
    if (suspects.none())
        return false; // vertical code is blind to this pattern

    // For every row the horizontal code flags, resolve which suspect
    // columns are flipped. The horizontal syndrome identifies the
    // faulty parity classes within each word; if exactly one suspect
    // column of that word falls in a flagged class, it is the culprit.
    // Single parity (EDC1) is left out: a 2D bank with a parity
    // horizontal code recovers by row reconstruction only
    // (ServiceGoldenPins.ParityHorizontalBank pins its outcomes).
    const auto *edc =
        horizontal->checkBits() > 1
            ? dynamic_cast<const InterleavedParityCode *>(horizontal.get())
            : nullptr;

    for (size_t row = 0; row < rows(); ++row) {
        const BitVector row_bits = data.readRow(row);
        ++report.rowReads;
        BitVector fixed_row = row_bits;
        bool row_touched = false;

        for (size_t slot = 0; slot < map.degree(); ++slot) {
            const BitVector cw = map.extractWord(fixed_row, slot);
            DecodeResult d = horizontal->decode(cw);
            if (d.clean())
                continue;
            if (d.corrected()) {
                // SECDED horizontal pinpoints the bit directly.
                map.depositWord(fixed_row, slot,
                                horizontal->encode(d.data));
                row_touched = true;
                continue;
            }
            if (edc == nullptr)
                return false; // no class information to exploit

            // EDC horizontal: map flagged parity classes to the
            // unique suspect column in each class.
            const BitVector syn = edc->syndrome(cw);
            BitVector repaired = cw;
            for (size_t cls = 0; cls < syn.size(); ++cls) {
                if (!syn.get(cls))
                    continue;
                long hit = -1;
                for (size_t bit = cls; bit < edc->codewordBits();
                     bit += syn.size()) {
                    const size_t col = map.physicalColumn(slot, bit);
                    if (suspects.get(col)) {
                        if (hit >= 0) {
                            hit = -2; // ambiguous: two suspects in class
                            break;
                        }
                        hit = long(bit);
                    }
                }
                if (hit < 0)
                    return false; // unresolvable class
                repaired.flip(size_t(hit));
            }
            if (!edc->syndrome(repaired).none())
                return false;
            map.depositWord(fixed_row, slot, repaired);
            row_touched = true;
        }

        if (row_touched) {
            // Again: repairs restore the parity-accounted value, so
            // the vertical code is left untouched.
            data.writeRow(row, fixed_row);
        }
    }

    // Record which suspect columns were involved.
    for (size_t c = 0; c < suspects.size(); ++c) {
        if (suspects.get(c))
            report.columnsRepaired.push_back(c);
    }
    return true;
}

RecoveryReport
TwoDimArray::recover()
{
    ++stat.recoveries;
    const uint64_t data_epoch = data.version();
    const uint64_t parity_epoch = parity.cells().version();
    if (failedAtFixedPoint && data_epoch == fixedDataEpoch &&
        parity_epoch == fixedParityEpoch) {
        ++stat.recoveryFailures;
        return lastReport;
    }
    ++stat.recoverySweeps;
    RecoveryReport report;

    // Sweep the bank (BIST-style march): collect faulty rows.
    std::vector<size_t> faulty;
    for (size_t r = 0; r < rows(); ++r) {
        const BitVector row_bits = data.readRow(r);
        ++report.rowReads;
        bool detect = false;
        if (!rowHealthy(row_bits, detect))
            faulty.push_back(r);
        else
            inlineCorrectRow(r); // grey box: horizontal single-bit fix
    }

    bool ok = true;
    bool need_column_path = false;
    for (size_t r : faulty) {
        // A row already repaired by a previous reconstruction (or by
        // the column path) is skipped.
        bool detect = false;
        if (rowHealthy(data.readRow(r), detect))
            continue;
        if (!reconstructRow(r, report)) {
            need_column_path = true;
            break;
        }
    }

    if (need_column_path) {
        ok = recoverViaColumns(report);
        // The column path may leave rows that the row path can now
        // finish (mixed patterns); run one more pass.
        if (ok) {
            for (size_t r = 0; r < rows(); ++r) {
                bool detect = false;
                if (!rowHealthy(data.readRow(r), detect)) {
                    ++report.rowReads;
                    if (!reconstructRow(r, report)) {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }

    report.success = ok && verifyClean();
    if (!report.success)
        ++stat.recoveryFailures;
    fixedDataEpoch = data.version();
    fixedParityEpoch = parity.cells().version();
    failedAtFixedPoint = !report.success && fixedDataEpoch == data_epoch &&
                         fixedParityEpoch == parity_epoch;
    lastReport = report;
    return report;
}

bool
TwoDimArray::scrub()
{
    for (size_t r = 0; r < rows(); ++r) {
        bool detect = false;
        data.readRowInto(r, rowScratch);
        if (!rowHealthy(rowScratch, detect)) {
            const RecoveryReport report = recover();
            return report.success;
        }
        inlineCorrectRow(r);
    }
    return true;
}

bool
TwoDimArray::verifyClean() const
{
    // "Clean" means no data loss: a slot that decodes kCorrected is
    // healthy — a stuck-at cell under a SECDED horizontal code is
    // corrected in line on every read forever (the Section 5.2 yield
    // usage), so it must not fail verification.
    for (size_t r = 0; r < rows(); ++r) {
        const BitVector row_bits = data.readRow(r);
        if (line.lineClean(row_bits))
            continue;
        for (size_t slot = 0; slot < map.degree(); ++slot) {
            if (horizontal->decode(map.extractWord(row_bits, slot))
                    .uncorrectable())
                return false;
        }
    }
    return true;
}

double
TwoDimArray::storageOverhead() const
{
    // Horizontal check bits per word + vertical parity rows per bank.
    return horizontal->storageOverhead() + parity.storageOverhead();
}

} // namespace tdc
