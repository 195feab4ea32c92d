// SELECT differential suite: random graphs whose vertices carry int,
// double, string, bool and null properties, and random stacks of one to
// three SELECT layers (WHERE, GROUP BY of 0-3 refs, COUNT(*), COUNT,
// SUM, AVG, MIN, MAX and plain items) over a random MATCH. On every MATCH
// backend (legacy, CSR, parallel CSR, sharded CSR) the executor's answer
// must equal the answer of the reference evaluator below run over that
// backend's own MATCH rows: same columns, same rows in the same order,
// same value types. The reference is written for clarity, not speed:
// names resolve per row and groups live in a `std::map` keyed by value
// vectors, with first-seen order recorded beside it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/parser.h"

namespace kaskade::query {
namespace {

using graph::CsrGraph;
using graph::GraphSchema;
using graph::PropertyGraph;
using graph::PropertyMap;
using graph::PropertyValue;
using graph::VertexId;

/// Vertex properties: one per value type, each sometimes absent (null),
/// and `pm`, whose type varies per vertex.
const char* const kProps[] = {"pi", "pd", "ps", "pb", "pm"};

/// Value pools with the cases a string-rendered key conflates: doubles
/// that print alike, 7 / 7.0 / "7", null / "null", -0.0 / 0.0, and
/// strings holding a separator byte.
PropertyValue PoolValue(std::mt19937_64& rng, int type) {
  static const int64_t kInts[] = {-3, 0, 1, 2, 7, 42};
  static const double kDoubles[] = {-0.0, 0.0,       0.5, 1.0000001,
                                    1.0000002, 2.5, 7.0};
  static const char* const kStrings[] = {"", "7", "null", "a", "a\x1f",
                                         "\x1f" "a", "b"};
  switch (type) {
    case 0:
      return PropertyValue(kInts[rng() % std::size(kInts)]);
    case 1:
      return PropertyValue(kDoubles[rng() % std::size(kDoubles)]);
    case 2:
      return PropertyValue(kStrings[rng() % std::size(kStrings)]);
    case 3:
      return PropertyValue(rng() % 2 == 0);
    default:
      return PropertyValue();
  }
}

PropertyGraph RandomGraph(std::mt19937_64& rng) {
  GraphSchema schema;
  schema.AddVertexType("N");
  EXPECT_TRUE(schema.AddEdgeType("E", "N", "N").ok());
  PropertyGraph g(std::move(schema));
  const size_t n = 12 + rng() % 20;
  for (size_t v = 0; v < n; ++v) {
    PropertyMap props;
    for (int p = 0; p < 4; ++p) {
      if (rng() % 5 != 0) props.Set(kProps[p], PoolValue(rng, p));
    }
    props.Set("pm", PoolValue(rng, static_cast<int>(rng() % 5)));
    g.AddVertex("N", std::move(props)).value();
  }
  const size_t m = n + rng() % (2 * n);
  for (size_t e = 0; e < m; ++e) {
    EXPECT_TRUE(g.AddEdge(static_cast<VertexId>(rng() % n),
                          static_cast<VertexId>(rng() % n), "E")
                    .ok());
  }
  return g;
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

Result<PropertyValue> RefValue(const PropertyGraph& g, const Table& in,
                               Table::RowView row, const ColumnRef& ref) {
  if (!ref.property.empty()) {
    const int direct = in.FindColumn(ref.ToString());
    if (direct >= 0) return row[direct];
  }
  const int col = in.FindColumn(ref.base);
  if (col < 0) return Status::NotFound("unknown column " + ref.base);
  if (ref.property.empty()) return row[col];
  if (!in.columns()[col].is_vertex) {
    return Status::InvalidArgument("not a vertex column " + ref.base);
  }
  if (row[col].is_null()) return PropertyValue();
  return g.VertexProperty(static_cast<VertexId>(row[col].as_int()),
                          ref.property);
}

struct ValuesLess {
  bool operator()(const std::vector<PropertyValue>& a,
                  const std::vector<PropertyValue>& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return false;
  }
};

PropertyValue RefAggregate(const PropertyGraph& g, const Table& in,
                           const SelectItem& item,
                           const std::vector<Table::RowView>& rows) {
  if (item.star) return PropertyValue(static_cast<int64_t>(rows.size()));
  std::vector<PropertyValue> values;
  for (Table::RowView row : rows) {
    PropertyValue v = RefValue(g, in, row, item.ref).value();
    if (!v.is_null()) values.push_back(std::move(v));
  }
  if (item.agg == AggFunc::kCount) {
    return PropertyValue(static_cast<int64_t>(values.size()));
  }
  if (values.empty()) return PropertyValue();
  switch (item.agg) {
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      bool all_int = true;
      int64_t isum = 0;
      double sum = 0;
      for (const PropertyValue& v : values) {
        if (v.is_int()) {
          isum += v.as_int();
        } else {
          all_int = false;
        }
        sum += v.ToDouble();
      }
      if (item.agg == AggFunc::kAvg) {
        return PropertyValue(sum / static_cast<double>(values.size()));
      }
      return all_int ? PropertyValue(isum) : PropertyValue(sum);
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      PropertyValue best = values[0];
      for (const PropertyValue& v : values) {
        if (item.agg == AggFunc::kMin ? v < best : best < v) best = v;
      }
      return best;
    }
    default:
      return PropertyValue();
  }
}

/// One SELECT layer over `in`.
Table RefSelect(const PropertyGraph& g, const SelectQuery& s, const Table& in) {
  std::vector<Table::RowView> rows;
  for (Table::RowView row : in.rows()) {
    bool pass = true;
    for (const Condition& c : s.where) {
      pass = pass && EvaluateCompare(c.op, RefValue(g, in, row, c.lhs).value(),
                                     c.rhs);
    }
    if (pass) rows.push_back(row);
  }
  bool aggregates = false;
  std::vector<Column> columns;
  for (const SelectItem& item : s.items) {
    aggregates = aggregates || item.agg != AggFunc::kNone;
    const int col = in.FindColumn(item.ref.base);
    columns.push_back(Column{item.OutputName(),
                             item.agg == AggFunc::kNone &&
                                 item.ref.property.empty() &&
                                 in.columns()[col].is_vertex});
  }
  Table out(std::move(columns));
  if (!aggregates && s.group_by.empty()) {
    for (Table::RowView row : rows) {
      Table::Row out_row;
      for (const SelectItem& item : s.items) {
        out_row.push_back(RefValue(g, in, row, item.ref).value());
      }
      out.AddRow(std::move(out_row));
    }
    return out;
  }
  std::map<std::vector<PropertyValue>, size_t, ValuesLess> index;
  std::vector<std::vector<Table::RowView>> groups;
  for (Table::RowView row : rows) {
    std::vector<PropertyValue> key;
    for (const ColumnRef& ref : s.group_by) {
      key.push_back(RefValue(g, in, row, ref).value());
    }
    auto [it, added] = index.emplace(std::move(key), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(row);
  }
  if (s.group_by.empty() && groups.empty()) groups.emplace_back();
  for (const std::vector<Table::RowView>& members : groups) {
    Table::Row out_row;
    for (const SelectItem& item : s.items) {
      if (item.agg != AggFunc::kNone) {
        out_row.push_back(RefAggregate(g, in, item, members));
      } else if (members.empty()) {
        out_row.emplace_back();
      } else {
        out_row.push_back(RefValue(g, in, members[0], item.ref).value());
      }
    }
    out.AddRow(std::move(out_row));
  }
  return out;
}

/// Applies the SELECT layers of `q` innermost first to `match_rows`.
Table RefQuery(const PropertyGraph& g, const Query& q,
               const Table& match_rows) {
  if (q.is_match()) return match_rows;
  return RefSelect(g, q.select(), RefQuery(g, *q.select().from, match_rows));
}

// ---------------------------------------------------------------------------
// Query generator
// ---------------------------------------------------------------------------

const char* const kMatches[] = {
    "MATCH (a:N)-[:E]->(b:N) RETURN a, b",
    "MATCH (a:N)-[:E]->(b:N) (b:N)-[:E]->(c:N) RETURN a, c",
    "MATCH (a:N)-[r*1..2]->(b:N) RETURN a, b",
    "MATCH (a:N)-[:E]->(b:N) WHERE a.pi > 1 RETURN a, b",
    // Never matches: the SELECT layers see no rows.
    "MATCH (a:N)-[:E]->(b:N) WHERE a.ps = 'zzz' RETURN a, b",
};

/// References a layer over `columns` may use: each column itself (a
/// dotted column as a literal `base.property` ref) and every property of
/// each vertex column.
std::vector<ColumnRef> Candidates(const std::vector<Column>& columns) {
  std::vector<ColumnRef> out;
  std::set<std::string> seen;
  auto add = [&](ColumnRef ref) {
    if (seen.insert(ref.ToString()).second) out.push_back(std::move(ref));
  };
  for (const Column& c : columns) {
    const size_t dot = c.name.find('.');
    if (dot == std::string::npos) {
      add(ColumnRef{c.name, ""});
    } else {
      add(ColumnRef{c.name.substr(0, dot), c.name.substr(dot + 1)});
    }
    if (c.is_vertex) {
      for (const char* p : kProps) add(ColumnRef{c.name, p});
    }
  }
  return out;
}

/// Wraps `from` in one random SELECT layer over `*columns`, which it
/// replaces with the layer's output columns.
Query RandomLayer(std::mt19937_64& rng, Query from, int layer,
                  std::vector<Column>* columns) {
  const std::vector<ColumnRef> refs = Candidates(*columns);
  auto pick = [&] { return refs[rng() % refs.size()]; };
  SelectQuery s;
  for (size_t i = rng() % 3; i > 0; --i) {
    Condition c;
    c.lhs = pick();
    c.op = static_cast<CompareOp>(rng() % 6);
    c.rhs = PoolValue(rng, static_cast<int>(rng() % 5));
    s.where.push_back(std::move(c));
  }
  std::set<std::string> names;
  auto add_plain = [&](const ColumnRef& ref) {
    if (!names.insert(ref.ToString()).second) return;
    SelectItem item;
    item.ref = ref;
    s.items.push_back(std::move(item));
  };
  const size_t group_refs = rng() % 4;
  for (size_t i = 0; i < group_refs; ++i) {
    ColumnRef ref = pick();
    bool duplicate = false;
    for (const ColumnRef& g : s.group_by) duplicate = duplicate || g == ref;
    if (duplicate) continue;
    s.group_by.push_back(ref);
    if (rng() % 5 != 0) add_plain(ref);
  }
  if (s.group_by.empty() && rng() % 3 == 0) {
    // Plain projection.
    for (size_t i = 1 + rng() % 3; i > 0; --i) add_plain(pick());
  } else {
    // A plain item outside GROUP BY reads the group's first row.
    if (rng() % 5 == 0) add_plain(pick());
    const size_t aggs = 1 + rng() % 3;
    for (size_t i = 0; i < aggs; ++i) {
      SelectItem item;
      item.agg = static_cast<AggFunc>(1 + rng() % 5);
      item.star = item.agg == AggFunc::kCount && rng() % 2 == 0;
      if (!item.star) item.ref = pick();
      item.alias = "s" + std::to_string(layer) + "_" + std::to_string(i);
      s.items.push_back(std::move(item));
    }
  }
  std::vector<Column> out;
  for (const SelectItem& item : s.items) {
    bool is_vertex = false;
    if (item.agg == AggFunc::kNone && item.ref.property.empty()) {
      for (const Column& c : *columns) {
        if (c.name == item.ref.base) is_vertex = c.is_vertex;
      }
    }
    out.push_back(Column{item.OutputName(), is_vertex});
  }
  *columns = std::move(out);
  s.from = std::make_unique<Query>(std::move(from));
  Query q;
  q.node = std::move(s);
  return q;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Value identity: same type, and for doubles the same bits.
bool Identical(const PropertyValue& a, const PropertyValue& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_bool() != b.is_bool() || a.is_int() != b.is_int() ||
      a.is_double() != b.is_double() || a.is_string() != b.is_string()) {
    return false;
  }
  if (!a.is_double()) return a == b;
  const double x = a.as_double(), y = b.as_double();
  return std::memcmp(&x, &y, sizeof x) == 0;
}

void ExpectSameTable(const Table& expected, const Table& got,
                     const std::string& context) {
  ASSERT_EQ(expected.num_columns(), got.num_columns()) << context;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    EXPECT_EQ(expected.columns()[c].name, got.columns()[c].name) << context;
    EXPECT_EQ(expected.columns()[c].is_vertex, got.columns()[c].is_vertex)
        << context << " column " << expected.columns()[c].name;
  }
  ASSERT_EQ(expected.num_rows(), got.num_rows()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      ASSERT_TRUE(Identical(expected.rows()[r][c], got.rows()[r][c]))
          << context << "\nrow " << r << " column "
          << expected.columns()[c].name << ": expected "
          << expected.rows()[r][c].ToString() << ", got "
          << got.rows()[r][c].ToString();
    }
  }
}

TEST(SelectDifferentialTest, ExecutorMatchesReferenceOnEveryBackend) {
  constexpr int kGraphs = 16;
  constexpr int kQueriesPerGraph = 24;
  size_t grouped_layers = 0, multi_group_results = 0, empty_inputs = 0;
  for (int seed = 0; seed < kGraphs; ++seed) {
    std::mt19937_64 rng(1000 + seed);
    const PropertyGraph g = RandomGraph(rng);
    const CsrGraph csr = CsrGraph::Build(g);
    ExecutorOptions par4;
    par4.parallelism = 4;
    ExecutorOptions shards2;
    shards2.shards = 2;
    std::pair<const char*, QueryExecutor> backends[] = {
        {"legacy", QueryExecutor(&g)},
        {"csr", QueryExecutor(&g, &csr)},
        {"csr parallelism=4", QueryExecutor(&g, &csr, par4)},
        {"csr shards=2", QueryExecutor(&g, &csr, shards2)},
    };
    for (int i = 0; i < kQueriesPerGraph; ++i) {
      const char* match_text = kMatches[rng() % std::size(kMatches)];
      Query match = ParseQueryText(match_text).value();
      std::vector<Column> columns = {
          {match.match().return_items[0].OutputName(), true},
          {match.match().return_items[1].OutputName(), true}};
      Query q = match.Clone();
      const int layers = 1 + static_cast<int>(rng() % 3);
      for (int layer = 0; layer < layers; ++layer) {
        q = RandomLayer(rng, std::move(q), layer, &columns);
        if (!q.select().group_by.empty()) ++grouped_layers;
      }
      const std::string context = "graph seed " + std::to_string(seed) +
                                  ": " + q.ToString();
      for (auto& [name, executor] : backends) {
        auto match_rows = executor.Execute(match);
        ASSERT_TRUE(match_rows.ok()) << name << " " << match_rows.status();
        auto got = executor.Execute(q);
        ASSERT_TRUE(got.ok()) << name << " " << context << ": "
                              << got.status();
        const Table expected = RefQuery(g, q, *match_rows);
        ExpectSameTable(expected, *got, std::string(name) + " " + context);
        if (name == std::string("legacy")) {
          if (match_rows->num_rows() == 0) ++empty_inputs;
          if (got->num_rows() > 1) ++multi_group_results;
        }
      }
    }
  }
  // The generator must reach the interesting cases, not just run.
  EXPECT_GT(grouped_layers, 100u);
  EXPECT_GT(multi_group_results, 50u);
  EXPECT_GT(empty_inputs, 10u);
}

}  // namespace
}  // namespace kaskade::query
