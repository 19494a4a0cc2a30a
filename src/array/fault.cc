#include "array/fault.hh"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tdc
{

namespace
{

/** Parse a positive decimal footprint dimension out of @p token. */
size_t
parseDim(const std::string &token, const std::string &digits)
{
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("bad fault footprint in \"" + token +
                                    "\"");
    const unsigned long long v = std::strtoull(digits.c_str(), nullptr, 10);
    if (v == 0 || v > 65536)
        throw std::invalid_argument("fault footprint out of range in \"" +
                                    token + "\"");
    return size_t(v);
}

/** Per-cell flip probability out of the "@D" suffix of @p token. */
double
parseDensity(const std::string &token, const std::string &dens)
{
    char *end = nullptr;
    const double density = std::strtod(dens.c_str(), &end);
    if (dens.empty() || end != dens.c_str() + dens.size() ||
        density <= 0.0 || density > 1.0)
        throw std::invalid_argument("bad cluster density in \"" + token +
                                    "\"");
    return density;
}

} // namespace

FaultModel
parseFaultModel(const std::string &spec)
{
    if (spec == "single")
        return FaultModel::singleBit();
    if (spec == "fullrow" || spec == "full-row")
        return FaultModel::fullRow();
    if (spec == "fullcol" || spec == "full-col")
        return FaultModel::fullColumn();
    if (spec.rfind("row:", 0) == 0)
        return FaultModel::rowBurst(parseDim(spec, spec.substr(4)));
    if (spec.rfind("col:", 0) == 0)
        return FaultModel::columnBurst(parseDim(spec, spec.substr(4)));
    if (spec.rfind("chip:", 0) == 0) {
        const std::string idx = spec.substr(5);
        if (idx == "any")
            return FaultModel::chipKill();
        // Chip 0 is legal, so parseDim (which rejects 0) cannot serve.
        if (idx.empty() ||
            idx.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument("bad chip index in \"" + spec +
                                        "\"");
        const unsigned long long v =
            std::strtoull(idx.c_str(), nullptr, 10);
        if (v > 65535)
            throw std::invalid_argument("chip index out of range in \"" +
                                        spec + "\"");
        return FaultModel::chipKill(long(v));
    }
    if (spec.rfind("hammer:", 0) == 0) {
        std::string body = spec.substr(7);
        double density = 1.0;
        if (const size_t at = body.find('@'); at != std::string::npos) {
            density = parseDensity(spec, body.substr(at + 1));
            body = body.substr(0, at);
        }
        return FaultModel::rowHammer(parseDim(spec, body), density);
    }
    if (spec.rfind("senseamp:", 0) == 0)
        return FaultModel::senseAmp(parseDim(spec, spec.substr(9)));

    // WxH[@D] cluster.
    std::string body = spec;
    double density = 1.0;
    if (const size_t at = body.find('@'); at != std::string::npos) {
        density = parseDensity(spec, body.substr(at + 1));
        body = body.substr(0, at);
    }
    const size_t x = body.find('x');
    if (x == std::string::npos)
        throw std::invalid_argument("unknown fault model \"" + spec + "\"");
    const size_t w = parseDim(spec, body.substr(0, x));
    const size_t h = parseDim(spec, body.substr(x + 1));
    return FaultModel::cluster(w, h, density);
}

std::string
FaultEvent::describe() const
{
    const char *shape_name = nullptr;
    switch (shape) {
      case FaultShape::kSingleBit: shape_name = "single-bit"; break;
      case FaultShape::kRowBurst: shape_name = "row-burst"; break;
      case FaultShape::kColumnBurst: shape_name = "column-burst"; break;
      case FaultShape::kCluster: shape_name = "cluster"; break;
      case FaultShape::kFullRow: shape_name = "full-row"; break;
      case FaultShape::kFullColumn: shape_name = "full-column"; break;
      case FaultShape::kChipKill: shape_name = "chip-kill"; break;
      case FaultShape::kRowHammer: shape_name = "row-hammer"; break;
      case FaultShape::kSenseAmp: shape_name = "sense-amp"; break;
    }
    return std::string(shape_name) + " " + std::to_string(width()) + "x" +
           std::to_string(height()) + " (" + std::to_string(cells.size()) +
           " cells, " +
           (persistence == FaultPersistence::kTransient ? "soft" : "hard") +
           ")";
}

FaultModel
FaultModel::singleBit()
{
    FaultModel m;
    m.shape = FaultShape::kSingleBit;
    return m;
}

FaultModel
FaultModel::rowBurst(size_t width)
{
    FaultModel m;
    m.shape = FaultShape::kRowBurst;
    m.width = width;
    return m;
}

FaultModel
FaultModel::columnBurst(size_t height)
{
    FaultModel m;
    m.shape = FaultShape::kColumnBurst;
    m.height = height;
    return m;
}

FaultModel
FaultModel::cluster(size_t width, size_t height, double density)
{
    FaultModel m;
    m.shape = FaultShape::kCluster;
    m.width = width;
    m.height = height;
    m.density = density;
    return m;
}

FaultModel
FaultModel::fullRow()
{
    FaultModel m;
    m.shape = FaultShape::kFullRow;
    return m;
}

FaultModel
FaultModel::fullColumn()
{
    FaultModel m;
    m.shape = FaultShape::kFullColumn;
    return m;
}

FaultModel
FaultModel::chipKill(long chip)
{
    FaultModel m;
    m.shape = FaultShape::kChipKill;
    m.colLo = chip;
    return m;
}

FaultModel
FaultModel::rowHammer(size_t rows, double density)
{
    FaultModel m;
    m.shape = FaultShape::kRowHammer;
    m.height = rows;
    m.density = density;
    return m;
}

FaultModel
FaultModel::senseAmp(size_t height)
{
    FaultModel m;
    m.shape = FaultShape::kSenseAmp;
    m.width = 2;
    m.height = height;
    return m;
}

std::string
FaultModel::describe() const
{
    switch (shape) {
      case FaultShape::kSingleBit: return "1x1";
      case FaultShape::kRowBurst:
        return std::to_string(width) + "x1 burst";
      case FaultShape::kColumnBurst:
        return "1x" + std::to_string(height) + " burst";
      case FaultShape::kCluster:
        return std::to_string(width) + "x" + std::to_string(height) +
               (density < 1.0
                    ? " @" + std::to_string(int(density * 100)) + "%"
                    : "");
      case FaultShape::kFullRow: return "full row";
      case FaultShape::kFullColumn: return "full column";
      case FaultShape::kChipKill:
        return colLo >= 0 ? "chip " + std::to_string(colLo) + " kill"
                          : "chip kill";
      case FaultShape::kRowHammer:
        return "hammer " + std::to_string(height) + " rows" +
               (density < 1.0
                    ? " @" + std::to_string(int(density * 100)) + "%"
                    : "");
      case FaultShape::kSenseAmp:
        return "sense-amp 2x" + std::to_string(height);
    }
    return "?";
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

std::string
FaultModel::spec() const
{
    std::string base;
    switch (shape) {
      case FaultShape::kSingleBit: base = "single"; break;
      case FaultShape::kRowBurst:
        base = "row:" + std::to_string(width);
        break;
      case FaultShape::kColumnBurst:
        base = "col:" + std::to_string(height);
        break;
      case FaultShape::kCluster:
        base = std::to_string(width) + "x" + std::to_string(height);
        if (density < 1.0)
            base += "@" + exactDouble(density);
        break;
      case FaultShape::kFullRow: base = "fullrow"; break;
      case FaultShape::kFullColumn: base = "fullcol"; break;
      case FaultShape::kChipKill:
        // colLo carries the chip selector, not a cell anchor, so the
        // generic "/@row,col" suffix below must not fire for it.
        base = "chip:" +
               (colLo >= 0 ? std::to_string(colLo) : std::string("any"));
        if (persistence == FaultPersistence::kStuckAt)
            base += "/hard";
        return base;
      case FaultShape::kRowHammer:
        base = "hammer:" + std::to_string(height);
        if (density < 1.0)
            base += "@" + exactDouble(density);
        break;
      case FaultShape::kSenseAmp:
        base = "senseamp:" + std::to_string(height);
        break;
    }
    if (rowLo >= 0 || colLo >= 0)
        base += "/@" + std::to_string(rowLo) + "," + std::to_string(colLo);
    if (persistence == FaultPersistence::kStuckAt)
        base += "/hard";
    return base;
}

void
FaultInjector::applyCell(MemoryArray &arr, size_t r, size_t c,
                         FaultPersistence p, FaultEvent &event)
{
    if (p == FaultPersistence::kTransient) {
        arr.flipBit(r, c);
    } else {
        // Stick at the complement of the stored value so the fault is
        // observable immediately.
        arr.addStuckAt(r, c, !arr.readBit(r, c));
    }
    event.cells.emplace_back(r, c);
}

FaultEvent
FaultInjector::injectSingleBit(MemoryArray &arr, FaultPersistence p)
{
    FaultEvent event;
    event.shape = FaultShape::kSingleBit;
    event.persistence = p;
    const size_t r = rng.nextBelow(arr.rows());
    const size_t c = rng.nextBelow(arr.cols());
    applyCell(arr, r, c, p, event);
    event.rowLo = event.rowHi = r;
    event.colLo = event.colHi = c;
    return event;
}

FaultEvent
FaultInjector::injectRowBurst(MemoryArray &arr, size_t row, size_t width,
                              long col_lo, FaultPersistence p)
{
    assert(width >= 1 && width <= arr.cols());
    FaultEvent event;
    event.shape = FaultShape::kRowBurst;
    event.persistence = p;
    const size_t lo = col_lo >= 0 ? size_t(col_lo)
                                  : rng.nextBelow(arr.cols() - width + 1);
    assert(lo + width <= arr.cols());
    for (size_t c = lo; c < lo + width; ++c)
        applyCell(arr, row, c, p, event);
    event.rowLo = event.rowHi = row;
    event.colLo = lo;
    event.colHi = lo + width - 1;
    return event;
}

FaultEvent
FaultInjector::injectColumnBurst(MemoryArray &arr, size_t col,
                                 size_t height, long row_lo,
                                 FaultPersistence p)
{
    assert(height >= 1 && height <= arr.rows());
    FaultEvent event;
    event.shape = FaultShape::kColumnBurst;
    event.persistence = p;
    const size_t lo = row_lo >= 0 ? size_t(row_lo)
                                  : rng.nextBelow(arr.rows() - height + 1);
    assert(lo + height <= arr.rows());
    for (size_t r = lo; r < lo + height; ++r)
        applyCell(arr, r, col, p, event);
    event.rowLo = lo;
    event.rowHi = lo + height - 1;
    event.colLo = event.colHi = col;
    return event;
}

FaultEvent
FaultInjector::injectCluster(MemoryArray &arr, size_t width, size_t height,
                             double density, long row_lo, long col_lo,
                             FaultPersistence p)
{
    assert(width >= 1 && width <= arr.cols());
    assert(height >= 1 && height <= arr.rows());
    assert(density > 0.0 && density <= 1.0);

    FaultEvent event;
    event.shape = FaultShape::kCluster;
    event.persistence = p;
    const size_t rlo = row_lo >= 0
                           ? size_t(row_lo)
                           : rng.nextBelow(arr.rows() - height + 1);
    const size_t clo = col_lo >= 0
                           ? size_t(col_lo)
                           : rng.nextBelow(arr.cols() - width + 1);
    assert(rlo + height <= arr.rows());
    assert(clo + width <= arr.cols());

    // Choose the footprint first (re-rolling until every row of the
    // footprint participates), then apply, so the advertised bounding
    // box matches what was really flipped.
    std::vector<std::pair<size_t, size_t>> chosen;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        chosen.clear();
        bool all_rows_hit = true;
        for (size_t r = 0; r < height; ++r) {
            bool row_hit = false;
            for (size_t c = 0; c < width; ++c) {
                if (density >= 1.0 || rng.nextBool(density)) {
                    chosen.emplace_back(rlo + r, clo + c);
                    row_hit = true;
                }
            }
            all_rows_hit &= row_hit;
        }
        if (all_rows_hit)
            break;
    }
    for (auto [r, c] : chosen)
        applyCell(arr, r, c, p, event);

    event.rowLo = rlo;
    event.rowHi = rlo + height - 1;
    event.colLo = clo;
    event.colHi = clo + width - 1;
    return event;
}

FaultEvent
FaultInjector::injectFullRow(MemoryArray &arr, size_t row,
                             FaultPersistence p)
{
    FaultEvent event;
    event.shape = FaultShape::kFullRow;
    event.persistence = p;
    for (size_t c = 0; c < arr.cols(); ++c)
        applyCell(arr, row, c, p, event);
    event.rowLo = event.rowHi = row;
    event.colLo = 0;
    event.colHi = arr.cols() - 1;
    return event;
}

FaultEvent
FaultInjector::injectFullColumn(MemoryArray &arr, size_t col,
                                FaultPersistence p)
{
    FaultEvent event;
    event.shape = FaultShape::kFullColumn;
    event.persistence = p;
    for (size_t r = 0; r < arr.rows(); ++r)
        applyCell(arr, r, col, p, event);
    event.rowLo = 0;
    event.rowHi = arr.rows() - 1;
    event.colLo = event.colHi = col;
    return event;
}

FaultEvent
FaultInjector::injectChipKill(MemoryArray &arr, long chip,
                              FaultPersistence p)
{
    const size_t bits = arr.symbolBits();
    const size_t chips = arr.cols() / bits;
    assert(chips >= 1 && arr.cols() % bits == 0);
    FaultEvent event;
    event.shape = FaultShape::kChipKill;
    event.persistence = p;
    const size_t which =
        chip >= 0 ? size_t(chip) % chips : rng.nextBelow(chips);
    const size_t lo = which * bits;
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t c = lo; c < lo + bits; ++c)
            applyCell(arr, r, c, p, event);
    event.rowLo = 0;
    event.rowHi = arr.rows() - 1;
    event.colLo = lo;
    event.colHi = lo + bits - 1;
    return event;
}

FaultEvent
FaultInjector::injectRowHammer(MemoryArray &arr, size_t rows,
                               double density, long row_lo,
                               FaultPersistence p)
{
    assert(rows >= 1 && density > 0.0 && density <= 1.0);
    const size_t band = rows < arr.rows() ? rows : arr.rows();
    FaultEvent event;
    event.shape = FaultShape::kRowHammer;
    event.persistence = p;
    const size_t lo = row_lo >= 0
                          ? size_t(row_lo) % (arr.rows() - band + 1)
                          : rng.nextBelow(arr.rows() - band + 1);
    // A hammer band is stochastic per cell; re-roll only until the
    // event is non-empty so every injection is observable.
    std::vector<std::pair<size_t, size_t>> chosen;
    for (int attempt = 0; attempt < 1000 && chosen.empty(); ++attempt) {
        for (size_t r = lo; r < lo + band; ++r)
            for (size_t c = 0; c < arr.cols(); ++c)
                if (density >= 1.0 || rng.nextBool(density))
                    chosen.emplace_back(r, c);
    }
    for (auto [r, c] : chosen)
        applyCell(arr, r, c, p, event);
    event.rowLo = lo;
    event.rowHi = lo + band - 1;
    event.colLo = 0;
    event.colHi = arr.cols() - 1;
    return event;
}

FaultEvent
FaultInjector::injectSenseAmp(MemoryArray &arr, size_t height,
                              long row_lo, long col_lo,
                              FaultPersistence p)
{
    assert(height >= 1);
    const size_t span = height < arr.rows() ? height : arr.rows();
    const size_t width = arr.cols() >= 2 ? 2 : 1;
    FaultEvent event;
    event.shape = FaultShape::kSenseAmp;
    event.persistence = p;
    const size_t rlo = row_lo >= 0
                           ? size_t(row_lo) % (arr.rows() - span + 1)
                           : rng.nextBelow(arr.rows() - span + 1);
    const size_t clo = col_lo >= 0
                           ? size_t(col_lo) % (arr.cols() - width + 1)
                           : rng.nextBelow(arr.cols() - width + 1);
    for (size_t r = rlo; r < rlo + span; ++r)
        for (size_t c = clo; c < clo + width; ++c)
            applyCell(arr, r, c, p, event);
    event.rowLo = rlo;
    event.rowHi = rlo + span - 1;
    event.colLo = clo;
    event.colHi = clo + width - 1;
    return event;
}

FaultEvent
FaultInjector::inject(MemoryArray &arr, const FaultModel &m)
{
    switch (m.shape) {
      case FaultShape::kSingleBit:
        return injectSingleBit(arr, m.persistence);
      case FaultShape::kRowBurst: {
        const size_t row = m.rowLo >= 0 ? size_t(m.rowLo)
                                        : rng.nextBelow(arr.rows());
        return injectRowBurst(arr, row, m.width, m.colLo, m.persistence);
      }
      case FaultShape::kColumnBurst: {
        const size_t col = m.colLo >= 0 ? size_t(m.colLo)
                                        : rng.nextBelow(arr.cols());
        return injectColumnBurst(arr, col, m.height, m.rowLo,
                                 m.persistence);
      }
      case FaultShape::kCluster:
        return injectCluster(arr, m.width, m.height, m.density, m.rowLo,
                             m.colLo, m.persistence);
      case FaultShape::kFullRow: {
        const size_t row = m.rowLo >= 0 ? size_t(m.rowLo)
                                        : rng.nextBelow(arr.rows());
        return injectFullRow(arr, row, m.persistence);
      }
      case FaultShape::kFullColumn: {
        const size_t col = m.colLo >= 0 ? size_t(m.colLo)
                                        : rng.nextBelow(arr.cols());
        return injectFullColumn(arr, col, m.persistence);
      }
      case FaultShape::kChipKill:
        return injectChipKill(arr, m.colLo, m.persistence);
      case FaultShape::kRowHammer:
        return injectRowHammer(arr, m.height, m.density, m.rowLo,
                               m.persistence);
      case FaultShape::kSenseAmp:
        return injectSenseAmp(arr, m.height, m.rowLo, m.colLo,
                              m.persistence);
    }
    return {};
}

} // namespace tdc
