/// \file table.h
/// \brief Row-oriented result tables produced by the query executor.

#ifndef KASKADE_QUERY_TABLE_H_
#define KASKADE_QUERY_TABLE_H_

#include <cstdint>
#include <string>
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
class Table {
 public:
  using Row = std::vector<graph::PropertyValue>;

  Table() = default;
  explicit Table(std::vector<Column> columns) : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return columns_.size(); }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// Rewrites, in place, every int cell of a vertex column to
  /// `map(id)` (an `int64_t` to an `int64_t`). NULL cells and the cells
  /// of other columns are left as they are.
  template <typename Map>
  void MapVertexIds(Map&& map) {
    std::vector<size_t> vertex_columns;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].is_vertex) vertex_columns.push_back(c);
    }
    if (vertex_columns.empty()) return;
    for (Row& row : rows_) {
      for (size_t c : vertex_columns) {
        if (!row[c].is_int()) continue;
        const int64_t mapped = map(row[c].as_int());
        row[c] = graph::PropertyValue(mapped);
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
  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_TABLE_H_
