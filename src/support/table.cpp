#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace sisa::support {

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::formatDouble(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::size_t cols = header_.size();
    for (const auto &row : rows_)
        cols = std::max(cols, row.size());

    std::vector<std::size_t> widths(cols, 0);
    auto account = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    };
    account(header_);
    for (const auto &row : rows_)
        account(row);

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < cols; ++c) {
            const std::string cell = c < row.size() ? row[c] : "";
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << cell;
        }
        os << '\n';
    };

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << '\n';
    }
    for (const auto &row : rows_)
        emit(row);
}

} // namespace sisa::support
