/// \file table_test_util.h
/// \brief Shared result-table helpers for the executor test suites.

#ifndef KASKADE_TESTS_TABLE_TEST_UTIL_H_
#define KASKADE_TESTS_TABLE_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <vector>

#include "query/table.h"

namespace kaskade::testutil {

/// Rows of an all-vertex-column table as a canonical multiset: backends
/// may emit distinct rows in different orders (set semantics permits
/// that), contents must agree exactly.
inline std::multiset<std::vector<int64_t>> CanonicalRows(
    const query::Table& t) {
  std::multiset<std::vector<int64_t>> rows;
  for (const auto& row : t.rows()) {
    std::vector<int64_t> r;
    r.reserve(row.size());
    for (const graph::PropertyValue& v : row) r.push_back(v.as_int());
    rows.insert(std::move(r));
  }
  return rows;
}

/// One row of a table as an owned row, so rows of two tables compare
/// with `==` and print in gtest messages.
inline query::Table::Row OwnedRow(query::Table::RowView row) {
  return query::Table::Row(row.begin(), row.end());
}

/// Every row of `t` as an owned row, in table order (row order counts).
inline std::vector<query::Table::Row> OwnedRows(const query::Table& t) {
  std::vector<query::Table::Row> rows;
  rows.reserve(t.num_rows());
  for (const auto& row : t.rows()) rows.push_back(OwnedRow(row));
  return rows;
}

}  // namespace kaskade::testutil

#endif  // KASKADE_TESTS_TABLE_TEST_UTIL_H_
