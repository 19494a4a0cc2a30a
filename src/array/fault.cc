#include "array/fault.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/spec_reader.hh"

namespace tdc
{

FaultModel
parseFaultModel(const std::string &spec)
{
    const SpecReader in("fault spec \"" + spec + "\"");
    const auto dim = [&](const std::string &digits) {
        return size_t(in.digits(digits, 1, 65536));
    };
    // "<body>[@D]": the body, and the density D (solid by default).
    const auto density = [&](std::string &body) {
        const size_t at = body.find('@');
        if (at == std::string::npos)
            return 1.0;
        const double d = in.real(body.substr(at + 1), kAboveZero, 1);
        body.resize(at);
        return d;
    };

    if (spec == "single")
        return FaultModel::singleBit();
    if (spec == "fullrow" || spec == "full-row")
        return FaultModel::fullRow();
    if (spec == "fullcol" || spec == "full-col")
        return FaultModel::fullColumn();
    if (spec.rfind("row:", 0) == 0)
        return FaultModel::rowBurst(dim(spec.substr(4)));
    if (spec.rfind("col:", 0) == 0)
        return FaultModel::columnBurst(dim(spec.substr(4)));
    if (spec.rfind("chip:", 0) == 0) {
        const std::string idx = spec.substr(5);
        if (idx == "any")
            return FaultModel::chipKill();
        return FaultModel::chipKill(long(in.digits(idx, 0, 65535)));
    }
    if (spec.rfind("hammer:", 0) == 0) {
        std::string body = spec.substr(7);
        const double d = density(body);
        return FaultModel::rowHammer(dim(body), d);
    }
    if (spec.rfind("senseamp:", 0) == 0)
        return FaultModel::senseAmp(dim(spec.substr(9)));

    // WxH[@D] cluster.
    std::string body = spec;
    const double d = density(body);
    const size_t x = body.find('x');
    if (x == std::string::npos)
        in.fail("unknown fault model");
    const size_t w = dim(body.substr(0, x));
    return FaultModel::cluster(w, dim(body.substr(x + 1)), d);
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
