/// \file table.h
/// \brief Result tables produced by the query executor: one flat,
/// row-major array of cells per table.

#ifndef KASKADE_QUERY_TABLE_H_
#define KASKADE_QUERY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/property_value.h"

namespace kaskade::query {

/// \brief Column metadata: name plus whether cells are vertex references
/// (vertex ids stored as integers) rather than plain values.
struct Column {
  std::string name;
  bool is_vertex = false;
};

/// Index of the column named `name` in `columns`, or -1.
inline int FindColumn(const std::vector<Column>& columns,
                      const std::string& name) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

/// \brief A materialized query result.
///
/// Cells live in one row-major `PropertyValue` array, `num_columns()`
/// cells per row, so a table of any size costs one allocation rather
/// than one per row. `rows()` hands out rows as spans into that array;
/// producers append cells with `EmplaceCell` and close each row with
/// `EndRow`. A zero-column table still counts its rows.
class Table {
 public:
  /// An owned row, for callers that build rows one by one (`AddRow`) or
  /// need rows that outlive or reorder the table (`SortedRows`).
  using Row = std::vector<graph::PropertyValue>;
  /// A row in place: `num_columns()` cells of the table's array.
  using RowView = std::span<const graph::PropertyValue>;

  Table() = default;
  explicit Table(std::vector<Column> columns) : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  /// The rows as a sized, random-access range of `RowView`s (`size()`,
  /// `operator[]`, iteration). Valid while the table is alive and not
  /// appended to.
  auto rows() const {
    return std::views::transform(
        std::views::iota(size_t{0}, num_rows_),
        [cells = cells_.data(), width = columns_.size()](size_t r) {
          return RowView(cells + r * width, width);
        });
  }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends one row. Aborts (in every build type) when
  /// `row` does not have `num_columns()` cells: in a flat array a row
  /// of the wrong width would shift every later row.
  void AddRow(Row row);

  /// Appends one cell to the row being built; `EndRow` closes the row.
  template <typename... Args>
  void EmplaceCell(Args&&... args) {
    cells_.emplace_back(std::forward<Args>(args)...);
  }
  /// Closes the row whose cells were just emplaced. Aborts when the
  /// cells emplaced since the previous row are not `num_columns()`.
  void EndRow() {
    ++num_rows_;
    if (cells_.size() != num_rows_ * columns_.size()) AbortOnWidth();
  }

  /// Reserves room for `rows` rows of cells.
  void Reserve(size_t rows) { cells_.reserve(rows * columns_.size()); }

  /// Rewrites, in place, every int cell of a vertex column to
  /// `map(id)` (an `int64_t` to an `int64_t`). NULL cells and the cells
  /// of other columns are left as they are. One strided pass over the
  /// cells per vertex column.
  template <typename Map>
  void MapVertexIds(Map&& map) {
    const size_t width = columns_.size();
    for (size_t c = 0; c < width; ++c) {
      if (!columns_[c].is_vertex) continue;
      for (size_t i = c; i < cells_.size(); i += width) {
        if (!cells_[i].is_int()) continue;
        cells_[i] = graph::PropertyValue(
            static_cast<int64_t>(map(cells_[i].as_int())));
      }
    }
  }

  /// Index of the column with `name`, or -1.
  int FindColumn(const std::string& name) const {
    return query::FindColumn(columns_, name);
  }

  /// Renders the first `max_rows` rows for display/tests.
  std::string ToString(size_t max_rows = 20) const;

  /// Sorted copy of the rows (row-wise lexicographic order) — for
  /// order-insensitive result comparison in tests.
  std::vector<Row> SortedRows() const;

 private:
  [[noreturn]] void AbortOnWidth() const;

  std::vector<Column> columns_;
  std::vector<graph::PropertyValue> cells_;  ///< Row-major.
  size_t num_rows_ = 0;
};

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_TABLE_H_
