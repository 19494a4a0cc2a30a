#include "common/table.hh"

#include <cstdio>
#include <sstream>

namespace tdc
{

Table::Table(std::vector<std::string> headers)
    : header(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(header.size());
    rows.push_back(std::move(cells));
}

std::string
Table::num(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
Table::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
Table::render() const
{
    std::vector<size_t> widths(header.size());
    for (size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << cells[c];
            os << std::string(widths[c] - cells[c].size(), ' ');
        }
        os << '\n';
    };

    emit_row(header);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows)
        emit_row(row);
    return os.str();
}

} // namespace tdc
