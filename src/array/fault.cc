#include "array/fault.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

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

FaultEvent
FaultInjector::inject(MemoryArray &arr, const FaultModel &m)
{
    const size_t rows = arr.rows(), cols = arr.cols();
    // Where a span starts on an axis of dim cells: one of the dim -
    // span + 1 positions it fits at, fixed (reduced modulo their
    // count) or drawn.
    const auto anchor = [this](long fixed, size_t dim, size_t span) {
        const size_t fits = dim - span + 1;
        return fixed >= 0 ? size_t(fixed) % fits : rng.nextBelow(fits);
    };

    // Placement: one clipped rectangle per shape, anchors drawn in the
    // shape's order; a whole-axis span starts at 0 without a draw.
    size_t h = std::clamp<size_t>(m.height, 1, rows);
    size_t w = std::clamp<size_t>(m.width, 1, cols);
    size_t r0 = 0, c0 = 0;
    double density = 1.0;
    switch (m.shape) {
      case FaultShape::kSingleBit: // always drawn, even if anchored
        h = w = 1;
        r0 = rng.nextBelow(rows);
        c0 = rng.nextBelow(cols);
        break;
      case FaultShape::kRowBurst:
        h = 1;
        r0 = anchor(m.rowLo, rows, h);
        c0 = anchor(m.colLo, cols, w);
        break;
      case FaultShape::kColumnBurst:
        w = 1;
        c0 = anchor(m.colLo, cols, w);
        r0 = anchor(m.rowLo, rows, h);
        break;
      case FaultShape::kCluster:
        density = m.density;
        r0 = anchor(m.rowLo, rows, h);
        c0 = anchor(m.colLo, cols, w);
        break;
      case FaultShape::kFullRow:
        h = 1;
        w = cols;
        r0 = anchor(m.rowLo, rows, h);
        break;
      case FaultShape::kFullColumn:
        h = rows;
        w = 1;
        c0 = anchor(m.colLo, cols, w);
        break;
      case FaultShape::kChipKill:
        // colLo selects a chip: a symbol-wide column group.
        h = rows;
        w = std::min(arr.symbolBits(), cols);
        c0 = anchor(m.colLo, cols / w, 1) * w;
        break;
      case FaultShape::kRowHammer:
        density = m.density;
        w = cols;
        r0 = anchor(m.rowLo, rows, h);
        break;
      case FaultShape::kSenseAmp:
        w = std::min<size_t>(2, cols);
        r0 = anchor(m.rowLo, rows, h);
        c0 = anchor(m.colLo, cols, w);
        break;
    }

    // Apply: choose the cells first, so a re-roll discards a whole
    // draw. A solid footprint is chosen whole on the first attempt.
    std::vector<std::pair<size_t, size_t>> chosen;
    chosen.reserve(h * w);
    for (int attempt = 0; attempt < 1000; ++attempt) {
        chosen.clear();
        bool every_row_hit = true;
        for (size_t r = r0; r < r0 + h; ++r) {
            bool row_hit = false;
            for (size_t c = c0; c < c0 + w; ++c) {
                if (density >= 1.0 || rng.nextBool(density)) {
                    chosen.emplace_back(r, c);
                    row_hit = true;
                }
            }
            every_row_hit &= row_hit;
        }
        if (m.shape == FaultShape::kRowHammer ? !chosen.empty()
                                              : every_row_hit)
            break;
    }
    for (const auto &[r, c] : chosen) {
        if (m.persistence == FaultPersistence::kTransient)
            arr.flipBit(r, c);
        else // stuck at the complement, so it is observable at once
            arr.addStuckAt(r, c, !arr.readBit(r, c));
    }
    return {r0, r0 + h - 1, c0, c0 + w - 1};
}

} // namespace tdc
