/**
 * @file
 * Plain-text table rendering used by the bench harnesses to print the
 * rows/series of every reproduced paper table and figure.
 */

#ifndef TDC_COMMON_TABLE_HH
#define TDC_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace tdc
{

/**
 * Column-aligned ASCII table. Cells are strings; helpers format
 * numbers. Rendered with a header rule, suitable for bench output.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row of pre-formatted cells (padded/truncated to fit). */
    void addRow(std::vector<std::string> cells);

    /** Format a double with @p precision fractional digits. */
    static std::string num(double value, int precision = 2);

    /** Format a value as a percentage ("12.5%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Render the whole table to a string. */
    std::string render() const;

    /** Header cells (for structured re-rendering, e.g. CSV/JSON). */
    const std::vector<std::string> &headers() const { return header; }

    /** Body rows as raw cells. */
    const std::vector<std::vector<std::string>> &data() const
    {
        return rows;
    }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace tdc

#endif // TDC_COMMON_TABLE_HH
