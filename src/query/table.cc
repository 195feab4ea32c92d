#include "query/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace kaskade::query {

void Table::AddRow(Row row) {
  for (graph::PropertyValue& cell : row) cells_.push_back(std::move(cell));
  EndRow();
}

void Table::AbortOnWidth() const {
  std::fprintf(stderr,
               "Table: row %zu does not have the table's %zu columns\n",
               num_rows_ - 1, columns_.size());
  std::abort();
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i].name;
  }
  out += "\n";
  const auto all = rows();
  for (size_t r = 0; r < num_rows_ && r < max_rows; ++r) {
    const RowView row = all[r];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].ToString();
    }
    out += "\n";
  }
  if (num_rows_ > max_rows) {
    out += "... (" + std::to_string(num_rows_ - max_rows) + " more rows)\n";
  }
  return out;
}

std::vector<Table::Row> Table::SortedRows() const {
  std::vector<Row> sorted;
  sorted.reserve(num_rows_);
  for (RowView row : rows()) sorted.emplace_back(row.begin(), row.end());
  std::sort(sorted.begin(), sorted.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
  return sorted;
}

}  // namespace kaskade::query
