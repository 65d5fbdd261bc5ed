/**
 * @file
 * Plain-text table emitter used by the benchmark binaries to print the
 * rows/series each paper figure or table reports. Columns are sized to
 * their widest cell.
 */

#ifndef SISA_SUPPORT_TABLE_HPP
#define SISA_SUPPORT_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace sisa::support {

/** Column-aligned text table with an optional title. */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row. */
    void setHeader(std::vector<std::string> cells);

    /** Append one data row; ragged rows are padded when printed. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with @p precision decimal places. */
    static std::string formatDouble(double value, int precision = 2);

    /** Render with aligned columns to @p os. */
    void print(std::ostream &os) const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace sisa::support

#endif // SISA_SUPPORT_TABLE_HPP
