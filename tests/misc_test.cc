// Coverage for smaller public surfaces: result tables, the abstract cost
// model, view naming/Cypher rendering, and assorted invariants.

#include <gtest/gtest.h>

#include "core/view_definition.h"
#include "datasets/generators.h"
#include "graph/stats.h"
#include "query/cost.h"
#include "query/parser.h"
#include "query/table.h"

namespace kaskade {
namespace {

using graph::PropertyValue;
using query::Column;
using query::Table;

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, ColumnsAndRows) {
  Table t({Column{"a", true}, Column{"b", false}});
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.FindColumn("b"), 1);
  EXPECT_EQ(t.FindColumn("zzz"), -1);
  t.AddRow({PropertyValue(1), PropertyValue("x")});
  t.AddRow({PropertyValue(0), PropertyValue("y")});
  EXPECT_EQ(t.num_rows(), 2u);
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("a | b"), std::string::npos);
  EXPECT_NE(rendered.find("1 | x"), std::string::npos);
}

TEST(TableTest, ToStringTruncates) {
  Table t({Column{"n", false}});
  for (int i = 0; i < 30; ++i) t.AddRow({PropertyValue(i)});
  std::string rendered = t.ToString(5);
  EXPECT_NE(rendered.find("25 more rows"), std::string::npos);
}

TEST(TableTest, SortedRowsIsRowLexicographic) {
  Table t({Column{"a", false}, Column{"b", false}});
  t.AddRow({PropertyValue(2), PropertyValue(1)});
  t.AddRow({PropertyValue(1), PropertyValue(9)});
  t.AddRow({PropertyValue(1), PropertyValue(2)});
  auto sorted = t.SortedRows();
  EXPECT_EQ(sorted[0][0], PropertyValue(1));
  EXPECT_EQ(sorted[0][1], PropertyValue(2));
  EXPECT_EQ(sorted[2][0], PropertyValue(2));
  const std::vector<Table::Row> want = {
      {PropertyValue(1), PropertyValue(2)},
      {PropertyValue(1), PropertyValue(9)},
      {PropertyValue(2), PropertyValue(1)},
  };
  EXPECT_EQ(sorted, want);
  // The table itself keeps insertion order.
  EXPECT_EQ(t.rows()[0][0], PropertyValue(2));
  EXPECT_EQ(t.rows()[2][1], PropertyValue(2));
}

TEST(TableTest, ZeroColumnTableCountsItsRows) {
  Table t;
  t.AddRow({});
  t.AddRow({});
  t.EndRow();  // a row of no emplaced cells
  EXPECT_EQ(t.num_columns(), 0u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.rows().size(), 3u);
  size_t visited = 0;
  for (const auto& row : t.rows()) {
    EXPECT_TRUE(row.empty());
    ++visited;
  }
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(t.SortedRows().size(), 3u);
  EXPECT_EQ(t.ToString(), "\n\n\n\n");
}

TEST(TableTest, RowViewsIterationAndToStringAgreeWithAddedRows) {
  const std::vector<Table::Row> added = {
      {PropertyValue(int64_t{7}), PropertyValue("x"), PropertyValue()},
      {PropertyValue(), PropertyValue(2.5), PropertyValue(true)},
      {PropertyValue(int64_t{-1}), PropertyValue("y z"), PropertyValue(0)},
  };
  Table t({Column{"v", true}, Column{"s", false}, Column{"w", false}});
  for (const Table::Row& row : added) t.AddRow(row);
  // Cells emplaced one by one make the same row as AddRow.
  t.EmplaceCell(int64_t{3});
  t.EmplaceCell("q");
  t.EmplaceCell();
  t.EndRow();
  std::vector<Table::Row> expected = added;
  expected.push_back({PropertyValue(int64_t{3}), PropertyValue("q"),
                      PropertyValue()});

  ASSERT_EQ(t.num_rows(), expected.size());
  ASSERT_EQ(t.rows().size(), expected.size());
  std::string rendered = "v | s | w\n";
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(t.rows()[i].size(), 3u);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.rows()[i][j], expected[i][j]) << i << "," << j;
      // Same type too: an int cell stays an int, a double a double.
      EXPECT_EQ(t.rows()[i][j].is_int(), expected[i][j].is_int());
      EXPECT_EQ(t.rows()[i][j].is_double(), expected[i][j].is_double());
      rendered += (j > 0 ? " | " : "") + expected[i][j].ToString();
    }
    rendered += "\n";
  }
  size_t i = 0;
  for (const auto& row : t.rows()) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(Table::Row(row.begin(), row.end()), expected[i]);
    size_t j = 0;
    for (const PropertyValue& v : row) EXPECT_EQ(v, expected[i][j++]);
    EXPECT_EQ(j, 3u);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  EXPECT_EQ(t.ToString(), rendered);
  EXPECT_EQ(t.ToString(2), "v | s | w\n7 | x | null\nnull | 2.5 | true\n"
                           "... (2 more rows)\n");
}

TEST(TableTest, MoveKeepsCells) {
  Table t({Column{"a", true}, Column{"b", false}});
  t.AddRow({PropertyValue(1), PropertyValue("x")});
  t.AddRow({PropertyValue(2), PropertyValue("y")});
  const PropertyValue* first_cell = &t.rows()[0][0];

  Table moved(std::move(t));
  ASSERT_EQ(moved.num_rows(), 2u);
  EXPECT_EQ(&moved.rows()[0][0], first_cell);  // the cells moved, uncopied
  EXPECT_EQ(moved.rows()[1][1], PropertyValue("y"));

  Table assigned;
  assigned = std::move(moved);
  ASSERT_EQ(assigned.num_rows(), 2u);
  EXPECT_EQ(assigned.num_columns(), 2u);
  EXPECT_EQ(&assigned.rows()[0][0], first_cell);
  EXPECT_EQ(assigned.rows()[0][1], PropertyValue("x"));

  const Table copy = assigned;
  EXPECT_EQ(copy.SortedRows(), assigned.SortedRows());
  EXPECT_NE(&copy.rows()[0][0], first_cell);
}

// A row of the wrong width would shift every later row of the flat cell
// array, so it aborts in every build type, not only under assertions.
TEST(TableDeathTest, WrongWidthRowIsRejected) {
  Table t({Column{"a", false}, Column{"b", false}});
  t.AddRow({PropertyValue(1), PropertyValue(2)});
  EXPECT_DEATH(t.AddRow({PropertyValue(3)}),
               "row 1 does not have the table's 2 columns");
  EXPECT_DEATH(
      t.AddRow({PropertyValue(3), PropertyValue(4), PropertyValue(5)}),
      "row 1 does not have the table's 2 columns");
  EXPECT_DEATH(
      {
        t.EmplaceCell(int64_t{3});
        t.EndRow();
      },
      "row 1 does not have the table's 2 columns");
  EXPECT_EQ(t.num_rows(), 1u);  // the parent's table is untouched
}

// ---------------------------------------------------------------------------
// Abstract cost model (MatchCostOnCounts)
// ---------------------------------------------------------------------------

query::MatchQuery VarLengthMatch(int max_hops) {
  auto q = query::ParseQueryText("MATCH (a:V)-[r*1.." +
                                 std::to_string(max_hops) +
                                 "]->(b:V) RETURN a, b");
  EXPECT_TRUE(q.ok());
  return q->match();
}

TEST(MatchCostTest, MonotoneInLevelsSeedsAndSize) {
  auto fixed = [](const std::string&) { return 2.0; };
  query::MatchQuery two = VarLengthMatch(2);
  query::MatchQuery eight = VarLengthMatch(8);
  EXPECT_LT(query::MatchCostOnCounts(two, 100, 1000, 5000, fixed),
            query::MatchCostOnCounts(eight, 100, 1000, 5000, fixed));
  EXPECT_LT(query::MatchCostOnCounts(two, 100, 1000, 5000, fixed),
            query::MatchCostOnCounts(two, 200, 1000, 5000, fixed));
  EXPECT_LT(query::MatchCostOnCounts(two, 100, 1000, 5000, fixed),
            query::MatchCostOnCounts(two, 100, 2000, 50000, fixed));
}

TEST(MatchCostTest, FixedEdgesUseExpansionFactor) {
  auto q = query::ParseQueryText("MATCH (a:V)-[:E]->(b:V) RETURN a, b");
  ASSERT_TRUE(q.ok());
  double cheap = query::MatchCostOnCounts(
      q->match(), 10, 100, 200, [](const std::string&) { return 1.0; });
  double dense = query::MatchCostOnCounts(
      q->match(), 10, 100, 200, [](const std::string&) { return 50.0; });
  EXPECT_LT(cheap, dense);
  // Expansion work is capped by an edge sweep.
  double capped = query::MatchCostOnCounts(
      q->match(), 10, 100, 200, [](const std::string&) { return 1e9; });
  EXPECT_LE(capped, 10 + 10.0 * 200 + 1);
}

TEST(MatchCostTest, EmptyPatternCostsSeedScanOnly) {
  auto q = query::ParseQueryText("MATCH (a:V) RETURN a");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(query::MatchCostOnCounts(
                       q->match(), 42, 100, 200,
                       [](const std::string&) { return 3.0; }),
                   42.0);
}

// ---------------------------------------------------------------------------
// View definitions: names, edge names, Cypher
// ---------------------------------------------------------------------------

TEST(ViewNamingTest, EveryKindHasNameAndDescription) {
  using core::ViewKind;
  for (ViewKind kind :
       {ViewKind::kKHopConnector, ViewKind::kSameVertexTypeConnector,
        ViewKind::kSameEdgeTypeConnector, ViewKind::kSourceToSinkConnector,
        ViewKind::kVertexInclusionSummarizer,
        ViewKind::kVertexRemovalSummarizer,
        ViewKind::kEdgeInclusionSummarizer, ViewKind::kEdgeRemovalSummarizer,
        ViewKind::kVertexAggregatorSummarizer,
        ViewKind::kSubgraphAggregatorSummarizer}) {
    core::ViewDefinition def;
    def.kind = kind;
    def.source_type = "Job";
    def.target_type = "Job";
    def.path_edge_type = "E";
    def.type_list = {"Job"};
    def.group_by_property = "p";
    EXPECT_STRNE(core::ViewKindName(kind), "unknown");
    EXPECT_FALSE(def.Name().empty());
    EXPECT_FALSE(def.ToCypher().empty());
  }
}

TEST(ViewNamingTest, ConnectorEdgeNames) {
  core::ViewDefinition def;
  def.kind = core::ViewKind::kKHopConnector;
  def.k = 4;
  def.source_type = "Author";
  def.target_type = "Author";
  EXPECT_EQ(def.EdgeName(), "4_HOP_AUTHOR_TO_AUTHOR");
  def.connector_edge_name = "CUSTOM";
  EXPECT_EQ(def.EdgeName(), "CUSTOM");
  core::ViewDefinition setc;
  setc.kind = core::ViewKind::kSameEdgeTypeConnector;
  setc.path_edge_type = "road";
  EXPECT_EQ(setc.EdgeName(), "CONN_VIA_ROAD");
}

TEST(ViewNamingTest, NamesAreDistinctAcrossParameters) {
  std::set<std::string> names;
  for (int k : {2, 4, 6}) {
    for (const char* type : {"Job", "File"}) {
      core::ViewDefinition def;
      def.kind = core::ViewKind::kKHopConnector;
      def.k = k;
      def.source_type = type;
      def.target_type = type;
      names.insert(def.Name());
    }
  }
  EXPECT_EQ(names.size(), 6u);
}

// ---------------------------------------------------------------------------
// Stats consistency
// ---------------------------------------------------------------------------

TEST(StatsConsistencyTest, PerTypeCountsSumToOverall) {
  graph::PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .num_tasks = 30});
  auto stats = graph::GraphStats::Compute(g);
  size_t total = 0;
  for (const auto& summary : stats.per_type()) total += summary.vertex_count;
  EXPECT_EQ(total, stats.num_vertices());
  EXPECT_EQ(stats.num_vertices(), g.NumVertices());
  EXPECT_EQ(stats.num_edges(), g.NumEdges());
  // Overall max degree >= every per-type max.
  for (const auto& summary : stats.per_type()) {
    EXPECT_LE(summary.p100, stats.overall().p100);
  }
}

TEST(StatsConsistencyTest, SizeBytesGrowWithGraph) {
  graph::GraphSchema schema;
  schema.AddVertexType("V");
  ASSERT_TRUE(schema.AddEdgeType("E", "V", "V").ok());
  graph::PropertyGraph small(schema);
  small.AddVertexOfType(0);
  graph::PropertyGraph big(schema);
  for (int i = 0; i < 100; ++i) big.AddVertexOfType(0);
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(big.AddEdgeOfType(i, i + 1, 0).ok());
  }
  EXPECT_LT(small.EstimateSizeBytes(), big.EstimateSizeBytes());
}

}  // namespace
}  // namespace kaskade
