// Tests for the hybrid query language: parser, executor (legacy, CSR,
// and parallel-CSR backends), cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datasets/workloads.h"
#include "graph/csr.h"
#include "graph/stats.h"
#include "query/ast.h"
#include "query/cost.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/match_common.h"
#include "query/parser.h"
#include "table_test_util.h"

namespace kaskade::query {
namespace {

using graph::CsrGraph;
using graph::GraphSchema;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(QueryParserTest, SimpleMatch) {
  auto q = ParseQueryText(
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f AS out");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->is_match());
  const MatchQuery& m = q->match();
  ASSERT_EQ(m.nodes.size(), 2u);
  EXPECT_EQ(m.nodes[0].name, "j");
  EXPECT_EQ(m.nodes[0].type, "Job");
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_EQ(m.edges[0].type, "WRITES_TO");
  EXPECT_FALSE(m.edges[0].variable_length);
  ASSERT_EQ(m.return_items.size(), 2u);
  EXPECT_EQ(m.return_items[1].OutputName(), "out");
}

TEST(QueryParserTest, VariableLengthEdge) {
  auto q = ParseQueryText("MATCH (a:File)-[r*0..8]->(b:File) RETURN a, b");
  ASSERT_TRUE(q.ok()) << q.status();
  const EdgePattern& e = q->match().edges[0];
  EXPECT_TRUE(e.variable_length);
  EXPECT_EQ(e.min_hops, 0);
  EXPECT_EQ(e.max_hops, 8);
  EXPECT_EQ(e.var, "r");
  EXPECT_TRUE(e.type.empty());
}

TEST(QueryParserTest, ChainedAndJuxtaposedPatterns) {
  // Listing 1 writes pattern segments with no separators at all.
  auto q = ParseQueryText(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "RETURN a, b");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->match().nodes.size(), 3u);  // a, f, b (f deduped)
  EXPECT_EQ(q->match().edges.size(), 2u);
  // Comma-separated works too.
  auto q2 = ParseQueryText(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
      "RETURN a, b");
  ASSERT_TRUE(q2.ok()) << q2.status();
  EXPECT_EQ(q2->match().edges.size(), 2u);
}

TEST(QueryParserTest, ConflictingNodeTypesRejected) {
  auto q = ParseQueryText(
      "MATCH (a:Job)-[:W]->(f:File) (f:Job)-[:R]->(b:Job) RETURN a");
  EXPECT_FALSE(q.ok());
}

TEST(QueryParserTest, ListingOneParses) {
  auto q = ParseQueryText(datasets::BlastRadiusQueryText());
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->is_select());
  const SelectQuery& outer = q->select();
  ASSERT_EQ(outer.items.size(), 2u);
  EXPECT_EQ(outer.items[0].ref.ToString(), "A.pipelineName");
  EXPECT_EQ(outer.items[1].agg, AggFunc::kAvg);
  ASSERT_EQ(outer.group_by.size(), 1u);
  ASSERT_TRUE(outer.from->is_select());
  const SelectQuery& inner = outer.from->select();
  EXPECT_EQ(inner.items[1].alias, "T_CPU");
  EXPECT_EQ(inner.items[1].agg, AggFunc::kSum);
  const MatchQuery* match = q->InnermostMatch();
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->nodes.size(), 4u);
  EXPECT_EQ(match->edges.size(), 3u);
  EXPECT_TRUE(match->edges[1].variable_length);
}

TEST(QueryParserTest, ListingFourConnectorEdgeTypeWithDigitsAndDash) {
  // The paper spells the connector type "2_HOP-JOB_TO_JOB".
  auto q = ParseQueryText(
      "MATCH (a:Job)-[:2_HOP-JOB_TO_JOB*1..4]->(b:Job) RETURN a, b");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->match().edges[0].type, "2_HOP_JOB_TO_JOB");
  EXPECT_EQ(q->match().edges[0].min_hops, 1);
  EXPECT_EQ(q->match().edges[0].max_hops, 4);
  // Underscore spelling parses identically.
  auto q2 = ParseQueryText(
      "MATCH (a:Job)-[:2_HOP_JOB_TO_JOB*1..4]->(b:Job) RETURN a, b");
  ASSERT_TRUE(q2.ok()) << q2.status();
  EXPECT_EQ(q2->match().edges[0].type, "2_HOP_JOB_TO_JOB");
}

TEST(QueryParserTest, WhereConditions) {
  auto q = ParseQueryText(
      "MATCH (j:Job)-[:W]->(f:File) WHERE j.CPU > 10 AND f.path = '/x' "
      "RETURN j");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->match().where.size(), 2u);
  EXPECT_EQ(q->match().where[0].op, CompareOp::kGt);
  EXPECT_EQ(q->match().where[1].rhs, PropertyValue("/x"));
}

TEST(QueryParserTest, SelectWithWhereAndCountStar) {
  auto q = ParseQueryText(
      "SELECT COUNT(*) FROM (MATCH (a:Job)-[:W]->(f:File) RETURN a) "
      "WHERE a.CPU >= 5");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->select().items[0].star);
  EXPECT_EQ(q->select().items[0].agg, AggFunc::kCount);
  EXPECT_EQ(q->select().where.size(), 1u);
}

TEST(QueryParserTest, KeywordsCaseInsensitive) {
  auto q = ParseQueryText("match (a:Job)-[:W]->(b:File) return a as x");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->match().return_items[0].alias, "x");
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQueryText("").ok());
  EXPECT_FALSE(ParseQueryText("FOO (a) RETURN a").ok());
  EXPECT_FALSE(ParseQueryText("MATCH (a:Job) RETURN").ok());
  EXPECT_FALSE(ParseQueryText("MATCH (a)-[*]->(b) RETURN a").ok());
  EXPECT_FALSE(ParseQueryText("MATCH (a)-[*3..1]->(b) RETURN a").ok());
  // 2^32 + 1 must not wrap to one hop.
  EXPECT_FALSE(ParseQueryText("MATCH (a)-[*1..4294967297]->(b) RETURN a").ok());
  EXPECT_FALSE(ParseQueryText("SELECT FROM (MATCH (a) RETURN a)").ok());
  EXPECT_FALSE(ParseQueryText("MATCH (a:Job) RETURN a extra").ok());
}

TEST(QueryAstTest, CloneAndToStringRoundTrip) {
  auto q = ParseQueryText(datasets::BlastRadiusQueryText());
  ASSERT_TRUE(q.ok());
  Query clone = q->Clone();
  EXPECT_EQ(clone.ToString(), q->ToString());
  // Rendered text reparses to the same rendering (fixed point).
  auto reparsed = ParseQueryText(q->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), q->ToString());
}

TEST(QueryParserTest, LiteralsOfEveryKind) {
  auto q = ParseQueryText(
      "MATCH (j:Job)-[:W]->(f:File) WHERE j.CPU > -1 AND j.ok = true AND "
      "j.bad = FALSE AND j.gone = null AND f.path = 'o''k' AND f.e = '' AND "
      "j.x < -2.5 AND j.y = 1.5e-07 AND j.z = -9223372036854775808 RETURN j");
  ASSERT_TRUE(q.ok()) << q.status();
  const std::vector<Condition>& where = q->match().where;
  ASSERT_EQ(where.size(), 9u);
  EXPECT_EQ(where[0].rhs, PropertyValue(int64_t{-1}));
  EXPECT_TRUE(where[0].rhs.is_int());
  EXPECT_EQ(where[1].rhs, PropertyValue(true));
  EXPECT_EQ(where[2].rhs, PropertyValue(false));
  EXPECT_TRUE(where[3].rhs.is_null());
  EXPECT_EQ(where[4].rhs, PropertyValue("o'k"));
  EXPECT_EQ(where[5].rhs, PropertyValue(""));
  EXPECT_EQ(where[6].rhs, PropertyValue(-2.5));
  EXPECT_EQ(where[7].rhs, PropertyValue(1.5e-07));
  EXPECT_EQ(where[8].rhs,
            PropertyValue(std::numeric_limits<int64_t>::min()));

  const char* const kBad[] = {
      "MATCH (j:Job) WHERE j.x = 9223372036854775808 RETURN j",
      "MATCH (j:Job) WHERE j.x = -9223372036854775809 RETURN j",
      "MATCH (j:Job) WHERE j.x = 99999999999999999999999 RETURN j",
      "MATCH (j:Job) WHERE j.x = 1.0e999 RETURN j",
      "MATCH (j:Job) WHERE j.x = -'a' RETURN j",
      "MATCH (j:Job) WHERE j.x = -true RETURN j",
      "MATCH (j:Job) WHERE j.x = maybe RETURN j",
      "MATCH (j:Job) WHERE j.x = 'open RETURN j",
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(ParseQueryText(text).ok()) << text;
  }
}

/// True when `a` and `b` are the same value of the same type; doubles
/// must agree bit for bit (so -0.0 is not 0.0).
bool SameLiteral(const PropertyValue& a, const PropertyValue& b) {
  if (a.is_double() && b.is_double()) {
    uint64_t x = 0, y = 0;
    const double da = a.as_double(), db = b.as_double();
    std::memcpy(&x, &da, sizeof x);
    std::memcpy(&y, &db, sizeof y);
    return x == y;
  }
  return a.is_int() == b.is_int() && a == b;
}

TEST(QueryAstTest, RandomConditionsRoundTripThroughText) {
  std::mt19937_64 rng(20261018);
  const double kDoubles[] = {0.0,
                             -0.0,
                             2.0,
                             -2.0,
                             1.0000001,
                             1.0000002,
                             0.1,
                             1e20,
                             1e-300,
                             5e-324,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest()};
  const int64_t kInts[] = {0, -1, 7, std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  const std::string kChars = "ab '\"x-.7";
  auto random_literal = [&]() -> PropertyValue {
    switch (rng() % 7) {
      case 0:
        return PropertyValue(kInts[rng() % std::size(kInts)]);
      case 1:
        return PropertyValue(static_cast<int64_t>(rng()));
      case 2:
        return PropertyValue(kDoubles[rng() % std::size(kDoubles)]);
      case 3: {
        // Any finite double, drawn from random bits.
        double d = 0;
        do {
          const uint64_t bits = rng();
          std::memcpy(&d, &bits, sizeof d);
        } while (!std::isfinite(d));
        return PropertyValue(d);
      }
      case 4: {
        std::string text;
        for (size_t n = rng() % 6; n > 0; --n) {
          text += kChars[rng() % kChars.size()];
        }
        return PropertyValue(text);
      }
      case 5:
        return PropertyValue(rng() % 2 == 0);
      default:
        return PropertyValue();
    }
  };
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

  for (int trial = 0; trial < 300; ++trial) {
    auto q = ParseQueryText(
        "SELECT a, COUNT(*) FROM (MATCH (a:Job)-[:W]->(b:File) RETURN a, b) "
        "GROUP BY a");
    ASSERT_TRUE(q.ok()) << q.status();
    std::vector<Condition>& match_where = q->MutableInnermostMatch()->where;
    std::vector<Condition>& select_where = q->select().where;
    for (std::vector<Condition>* where : {&match_where, &select_where}) {
      for (size_t n = 1 + rng() % 3; n > 0; --n) {
        Condition cond;
        cond.lhs.base = rng() % 2 == 0 ? "a" : "b";
        cond.lhs.property = "p";
        cond.op = kOps[rng() % std::size(kOps)];
        cond.rhs = random_literal();
        where->push_back(std::move(cond));
      }
    }
    const std::string text = q->ToString();
    auto reparsed = ParseQueryText(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status();
    EXPECT_EQ(reparsed->ToString(), text);
    const auto check = [&](const std::vector<Condition>& want,
                           const std::vector<Condition>& got) {
      ASSERT_EQ(want.size(), got.size()) << text;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].op, got[i].op) << text;
        EXPECT_TRUE(SameLiteral(want[i].rhs, got[i].rhs))
            << text << ": condition " << i << " read back as "
            << got[i].rhs.ToString();
      }
    };
    check(match_where, reparsed->InnermostMatch()->where);
    check(select_where, reparsed->select().where);
  }
}

TEST(QueryAstTest, DoublesRenderAsDoubles) {
  auto q = ParseQueryText("MATCH (j:Job) WHERE j.x = 2.0 RETURN j");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->ToString(), "MATCH (j:Job) WHERE j.x = 2.0 RETURN j");
  q->match().where[0].rhs = PropertyValue(1.0000001);
  EXPECT_EQ(q->ToString(), "MATCH (j:Job) WHERE j.x = 1.0000001 RETURN j");
  q->match().where[0].rhs = PropertyValue(1e20);
  EXPECT_EQ(q->ToString(), "MATCH (j:Job) WHERE j.x = 1.0e+20 RETURN j");
  q->match().where[0].rhs = PropertyValue("it's");
  EXPECT_EQ(q->ToString(), "MATCH (j:Job) WHERE j.x = 'it''s' RETURN j");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, MapVertexIdsRewritesOnlyVertexCellsInPlace) {
  Table t({Column{"v", true}, Column{"n", false}, Column{"w", true}});
  t.AddRow({PropertyValue(int64_t{1}), PropertyValue(int64_t{1}),
            PropertyValue()});
  t.AddRow({PropertyValue(), PropertyValue(int64_t{2}),
            PropertyValue(int64_t{3})});
  t.AddRow({PropertyValue(int64_t{4}), PropertyValue("s"),
            PropertyValue(int64_t{0})});
  const PropertyValue* first_cell = &t.rows()[0][0];
  t.MapVertexIds([](int64_t v) { return v + 100; });

  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(&t.rows()[0][0], first_cell);  // rewritten, not copied
  const std::vector<Table::Row> want = {
      {PropertyValue(int64_t{101}), PropertyValue(int64_t{1}),
       PropertyValue()},
      {PropertyValue(), PropertyValue(int64_t{2}),
       PropertyValue(int64_t{103})},
      {PropertyValue(int64_t{104}), PropertyValue("s"),
       PropertyValue(int64_t{100})},
  };
  EXPECT_EQ(testutil::OwnedRows(t), want);
  EXPECT_TRUE(t.rows()[0][2].is_null());
  EXPECT_TRUE(t.rows()[1][0].is_null());
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Small lineage fixture: j0 -> f0 -> j1 -> f1 -> j2 and j0 -> f2.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : g_(MakeSchema()) {
    for (int i = 0; i < 3; ++i) {
      graph::PropertyMap props;
      props.Set("CPU", PropertyValue(10.0 * (i + 1)));
      props.Set("pipelineName", PropertyValue(i < 2 ? "alpha" : "beta"));
      jobs_.push_back(g_.AddVertex("Job", std::move(props)).value());
    }
    for (int i = 0; i < 3; ++i) {
      files_.push_back(g_.AddVertex("File").value());
    }
    Must(g_.AddEdge(jobs_[0], files_[0], "WRITES_TO"));
    Must(g_.AddEdge(files_[0], jobs_[1], "IS_READ_BY"));
    Must(g_.AddEdge(jobs_[1], files_[1], "WRITES_TO"));
    Must(g_.AddEdge(files_[1], jobs_[2], "IS_READ_BY"));
    Must(g_.AddEdge(jobs_[0], files_[2], "WRITES_TO"));
  }

  static GraphSchema MakeSchema() {
    GraphSchema schema;
    schema.AddVertexType("Job");
    schema.AddVertexType("File");
    EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
    EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
    return schema;
  }

  template <typename T>
  static void Must(const Result<T>& r) {
    ASSERT_TRUE(r.ok()) << r.status();
  }

  Table Run(const std::string& text) {
    QueryExecutor executor(&g_);
    auto result = executor.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(*result) : Table();
  }

  Table RunCsr(const std::string& text, size_t parallelism = 1) {
    CsrGraph csr = CsrGraph::Build(g_);
    ExecutorOptions opts;
    opts.parallelism = parallelism;
    QueryExecutor executor(&g_, &csr, opts);
    auto result = executor.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(*result) : Table();
  }

  /// Runs `text` on the legacy backend (the oracle), then requires the
  /// CSR backend to return the same row set and the parallel CSR run to
  /// be byte-identical to the sequential CSR run.
  Table RunOnAllBackends(const std::string& text) {
    using testutil::CanonicalRows;
    Table legacy = Run(text);
    Table csr_seq = RunCsr(text, /*parallelism=*/1);
    Table csr_par = RunCsr(text, /*parallelism=*/4);
    EXPECT_EQ(CanonicalRows(legacy), CanonicalRows(csr_seq)) << text;
    EXPECT_EQ(csr_seq.num_rows(), csr_par.num_rows()) << text;
    if (csr_seq.num_rows() == csr_par.num_rows()) {
      for (size_t r = 0; r < csr_seq.num_rows(); ++r) {
        EXPECT_EQ(testutil::OwnedRow(csr_seq.rows()[r]),
                  testutil::OwnedRow(csr_par.rows()[r]))
            << text << " row " << r << " differs between sequential and "
            << "parallel CSR execution";
      }
    }
    return legacy;
  }

  PropertyGraph g_;
  std::vector<VertexId> jobs_;
  std::vector<VertexId> files_;
};

TEST_F(ExecutorTest, FixedEdgeMatch) {
  Table t = Run("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_TRUE(t.columns()[0].is_vertex);
}

TEST_F(ExecutorTest, TwoHopChain) {
  Table t = Run(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "RETURN a, b");
  // j0->j1 and j1->j2.
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, VariableLengthParityAndBounds) {
  // File-to-file paths have even length in this bipartite schema.
  Table t1 = Run("MATCH (a:File)-[r*1..2]->(b:File) RETURN a, b");
  EXPECT_EQ(t1.num_rows(), 1u);  // f0 -> f1 (2 hops); f2 is a sink
  Table t2 = Run("MATCH (a:File)-[r*1..1]->(b:File) RETURN a, b");
  EXPECT_EQ(t2.num_rows(), 0u);  // no odd-length file-file path
}

TEST_F(ExecutorTest, VariableLengthZeroIncludesSelf) {
  Table t = Run("MATCH (a:File)-[r*0..2]->(b:File) RETURN a, b");
  // 3 self pairs + f0->f1.
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, SetSemanticsDeduplicatesRows) {
  // Two parallel write edges must not duplicate the (j, f) row.
  Must(g_.AddEdge(jobs_[0], files_[0], "WRITES_TO"));
  Table t = Run("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, BackwardExpansionWhenTargetBoundFirst) {
  // Planner seeds at the smaller side; here both ends typed, so exercise
  // an edge whose source is the only free side by constraining files.
  Table t = Run(
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 15 RETURN j, f");
  EXPECT_EQ(t.num_rows(), 1u);  // only j1 (CPU 20) writes f1
}

TEST_F(ExecutorTest, WhereOnStringProperty) {
  Table t = Run(
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.pipelineName = 'alpha' "
      "RETURN j, f");
  EXPECT_EQ(t.num_rows(), 3u);  // j0 (2 writes) + j1 (1 write)
}

TEST_F(ExecutorTest, SelectProjectionWithVertexProperty) {
  Table t = Run(
      "SELECT j.CPU FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j)");
  // MATCH returns distinct j: j0, j1. Projection keeps 2 rows.
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.columns()[0].name, "j.CPU");
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  Table t = Run(
      "SELECT a, COUNT(*) AS n, SUM(b.CPU) AS total FROM ("
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "RETURN a, b) GROUP BY a");
  ASSERT_EQ(t.num_rows(), 2u);
  int n_col = t.FindColumn("n");
  int total_col = t.FindColumn("total");
  ASSERT_GE(n_col, 0);
  ASSERT_GE(total_col, 0);
  for (const auto& row : t.rows()) {
    EXPECT_EQ(row[n_col], PropertyValue(1));
  }
}

TEST_F(ExecutorTest, GlobalAggregateWithoutGroupBy) {
  Table t = Run(
      "SELECT COUNT(*) FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) "
      "RETURN j, f)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], PropertyValue(3));

  // Over no input rows an aggregate without GROUP BY still yields its one
  // row: COUNT 0, NULL for the other aggregates and for plain items.
  const std::string empty =
      "(MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 1000 RETURN j)";
  Table none = Run("SELECT COUNT(*), SUM(j.CPU), AVG(j.CPU), MIN(j.CPU), "
                   "MAX(j.CPU), j FROM " + empty);
  ASSERT_EQ(none.num_rows(), 1u);
  EXPECT_EQ(none.rows()[0][0], PropertyValue(0));
  EXPECT_TRUE(none.rows()[0][0].is_int());
  for (size_t c = 1; c < none.num_columns(); ++c) {
    EXPECT_TRUE(none.rows()[0][c].is_null()) << none.columns()[c].name;
  }
  // A WHERE at the SELECT layer that drops every row is the same case.
  Table filtered = Run(
      "SELECT COUNT(*) FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j) "
      "WHERE j.CPU > 1000");
  ASSERT_EQ(filtered.num_rows(), 1u);
  EXPECT_EQ(filtered.rows()[0][0], PropertyValue(0));
  // With GROUP BY, no input means no groups.
  EXPECT_EQ(Run("SELECT j, COUNT(*) FROM " + empty + " GROUP BY j").num_rows(),
            0u);
}

TEST_F(ExecutorTest, GroupByComparesTypedValues) {
  // Six distinct values that a rendered-string key merged into three:
  // doubles that print alike, int 7 vs string "7", null vs "null".
  const std::vector<PropertyValue> values = {
      PropertyValue(1.0000001), PropertyValue(1.0000002), PropertyValue(7),
      PropertyValue("7"), PropertyValue("null")};
  for (const PropertyValue& v : values) {
    graph::PropertyMap props;
    props.Set("x", v);
    g_.AddVertex("File", std::move(props)).value();
  }
  // The fixture's three files have no `x`: the null group.
  Table t = Run(
      "SELECT f.x, COUNT(*) AS n FROM (MATCH (f:File) RETURN f) GROUP BY f.x");
  ASSERT_EQ(t.num_rows(), 6u);
  for (const auto& row : t.rows()) {
    EXPECT_EQ(row[1], PropertyValue(row[0].is_null() ? 3 : 1))
        << row[0].ToString();
  }
  for (const PropertyValue& v : values) {
    size_t same_type = 0;
    for (const auto& row : t.rows()) {
      if (row[0] == v && row[0].is_string() == v.is_string()) ++same_type;
    }
    EXPECT_EQ(same_type, 1u) << v.ToString();
  }

  // Two-column keys whose renderings joined by a separator collide.
  for (const auto& [s, u] : {std::pair<std::string, std::string>{"a\x1f", "b"},
                             {"a", "\x1f" "b"}}) {
    graph::PropertyMap props;
    props.Set("s", PropertyValue(s));
    props.Set("u", PropertyValue(u));
    g_.AddVertex("File", std::move(props)).value();
  }
  Table pairs = Run(
      "SELECT f.s, f.u, COUNT(*) FROM (MATCH (f:File) RETURN f) "
      "WHERE f.s <> 'zz' GROUP BY f.s, f.u");
  EXPECT_EQ(pairs.num_rows(), 3u);  // (null, null) and the two pairs
}

TEST_F(ExecutorTest, GroupByMergesEqualNumbersAndNaNs) {
  // int 7 == double 7.0 under PropertyValue's equality: one group, whose
  // key is the first row's value. Every NaN falls in one group too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const PropertyValue& v :
       {PropertyValue(7), PropertyValue(7.0), PropertyValue(nan),
        PropertyValue(-nan), PropertyValue(0.0), PropertyValue(-0.0)}) {
    graph::PropertyMap props;
    props.Set("y", v);
    g_.AddVertex("File", std::move(props)).value();
  }
  Table t = Run(
      "SELECT f.y, COUNT(*) AS n FROM (MATCH (f:File) RETURN f) GROUP BY f.y");
  // null (the fixture's files), 7, NaN, 0.
  ASSERT_EQ(t.num_rows(), 4u);
  for (const auto& row : t.rows()) {
    EXPECT_EQ(row[1], PropertyValue(row[0].is_null() ? 3 : 2))
        << row[0].ToString();
    if (row[0] == PropertyValue(7)) {
      EXPECT_TRUE(row[0].is_int());
    }
  }
}

TEST_F(ExecutorTest, AvgAndMinMax) {
  Table t = Run(
      "SELECT AVG(j.CPU), MIN(j.CPU), MAX(j.CPU) FROM ("
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], PropertyValue(15.0));  // (10+20)/2
  EXPECT_EQ(t.rows()[0][1], PropertyValue(10.0));
  EXPECT_EQ(t.rows()[0][2], PropertyValue(20.0));
}

TEST_F(ExecutorTest, NestedSelectLayers) {
  Table t = Run(
      "SELECT A.pipelineName, AVG(T_CPU) FROM ("
      "  SELECT A, SUM(B.CPU) AS T_CPU FROM ("
      "    MATCH (A:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(B:Job)"
      "    RETURN A, B"
      "  ) GROUP BY A, B"
      ") GROUP BY A.pipelineName");
  // j0 (alpha) -> j1: 20; j1 (alpha) -> j2: 30. AVG over jobs = 25.
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], PropertyValue("alpha"));
  EXPECT_EQ(t.rows()[0][1], PropertyValue(25.0));
}

TEST_F(ExecutorTest, UnknownTypesAndColumnsFail) {
  QueryExecutor executor(&g_);
  EXPECT_FALSE(executor.ExecuteText("MATCH (x:Nope) RETURN x").ok());
  EXPECT_FALSE(
      executor.ExecuteText("MATCH (a:Job)-[:NOPE]->(b:File) RETURN a").ok());
  EXPECT_FALSE(
      executor
          .ExecuteText(
              "SELECT zzz FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j)")
          .ok());
  EXPECT_FALSE(
      executor.ExecuteText("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN zzz")
          .ok());
  // SELECT references resolve before any row is read: an unknown column
  // fails over an empty input as it does over a full one.
  const std::string empty =
      "(MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 1000 RETURN j)";
  for (const std::string& text :
       {"SELECT zzz FROM " + empty, "SELECT COUNT(*) FROM " + empty +
        " WHERE zzz = 1", "SELECT COUNT(*) FROM " + empty + " GROUP BY zzz",
        "SELECT SUM(zzz.CPU) FROM " + empty,
        "SELECT n.CPU FROM (SELECT COUNT(*) AS n FROM " + empty + ")"}) {
    auto result = executor.ExecuteText(text);
    EXPECT_FALSE(result.ok()) << text;
  }
}

TEST_F(ExecutorTest, RowLimitRespected) {
  ExecutorOptions opts;
  opts.max_rows = 2;
  QueryExecutor executor(&g_, opts);
  auto result =
      executor.ExecuteText("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, CyclicPatternAsFilter) {
  // Add a cycle: j2 writes f0 (f0 read by j1... making j1->f1->j2->f0->j1?).
  Must(g_.AddEdge(jobs_[2], files_[2], "WRITES_TO"));
  // Pattern with a closing edge: a writes f, f read by b, b writes f2,
  // and a also writes f2 -- a diamond that needs the filter-edge path.
  Table t = Run(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "(a:Job)-[:WRITES_TO]->(g:File) RETURN a, b, g");
  // Every (a,b) pair combined with every file a writes.
  EXPECT_EQ(t.num_rows(), 3u);  // (j0,j1)x{f0,f2}, (j1,j2)x{f1}
}

// ---------------------------------------------------------------------------
// Executor edge cases the CSR rewrite must preserve. Each expectation is
// pinned against the legacy path, then RunOnAllBackends requires the
// CSR and parallel-CSR paths to return the identical row set.
// ---------------------------------------------------------------------------

TEST_F(ExecutorTest, MinHopsZeroVariableLengthOnAllBackends) {
  Table t = RunOnAllBackends("MATCH (a:File)-[r*0..2]->(b:File) RETURN a, b");
  // 3 self pairs (min_hops == 0 includes each seed itself) + f0 -> f1.
  EXPECT_EQ(t.num_rows(), 4u);
  // Self pair must also appear when the zero-hop edge closes a cycle
  // (both endpoints bound to the same vertex).
  Table closed = RunOnAllBackends(
      "MATCH (a:File)-[r*0..2]->(b:File) (a:File)-[s*0..0]->(b:File) "
      "RETURN a, b");
  EXPECT_EQ(closed.num_rows(), 3u);  // only the self pairs survive *0..0
}

TEST_F(ExecutorTest, CycleClosingFilterEdgeOnAllBackends) {
  Must(g_.AddEdge(jobs_[2], files_[2], "WRITES_TO"));
  // Diamond pattern: the second (a)-[:WRITES_TO]->(g) edge closes a
  // cycle once a, b, g are bound, so it runs as a filter edge.
  Table t = RunOnAllBackends(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "(a:Job)-[:WRITES_TO]->(g:File) RETURN a, b, g");
  EXPECT_EQ(t.num_rows(), 3u);  // (j0,j1)x{f0,f2}, (j1,j2)x{f1}
}

TEST_F(ExecutorTest, VariableLengthCycleClosingFilterEdgeOnAllBackends) {
  // Both endpoints of the *2..2 edge are bound by the chain, so the
  // variable-length reachability check runs in filter position (the
  // early-exit BFS path).
  Table t = RunOnAllBackends(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "(a:Job)-[r*2..2]->(b:Job) RETURN a, b");
  EXPECT_EQ(t.num_rows(), 2u);  // j0->j1 and j1->j2, each via a 2-hop path
  Table none = RunOnAllBackends(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "(a:Job)-[r*3..3]->(b:Job) RETURN a, b");
  EXPECT_EQ(none.num_rows(), 0u);  // no odd-length Job->Job path
}

TEST_F(ExecutorTest, ParallelEdgesSetSemanticsOnAllBackends) {
  // Triple parallel write edges must not multiply rows under set
  // semantics, on any backend.
  Must(g_.AddEdge(jobs_[0], files_[0], "WRITES_TO"));
  Must(g_.AddEdge(jobs_[0], files_[0], "WRITES_TO"));
  Table t = RunOnAllBackends("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  EXPECT_EQ(t.num_rows(), 3u);
  // Same through a variable-length expansion.
  Table vl = RunOnAllBackends("MATCH (a:Job)-[r*1..2]->(b:Job) RETURN a, b");
  EXPECT_EQ(vl.num_rows(), 2u);  // j0->j1, j1->j2 (2 hops each)
}

TEST_F(ExecutorTest, RowLimitResourceExhaustedOnAllBackends) {
  const std::string query =
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
  CsrGraph csr = CsrGraph::Build(g_);
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    ExecutorOptions opts;
    opts.max_rows = 2;
    opts.parallelism = parallelism;
    QueryExecutor legacy(&g_, opts);
    auto legacy_result = legacy.ExecuteText(query);
    EXPECT_FALSE(legacy_result.ok());
    EXPECT_EQ(legacy_result.status().code(), StatusCode::kResourceExhausted);
    QueryExecutor over_csr(&g_, &csr, opts);
    auto csr_result = over_csr.ExecuteText(query);
    EXPECT_FALSE(csr_result.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(csr_result.status().code(), StatusCode::kResourceExhausted);
  }
  // At exactly the row count, every backend succeeds.
  ExecutorOptions exact;
  exact.max_rows = 3;
  QueryExecutor ok_exec(&g_, &csr, exact);
  EXPECT_TRUE(ok_exec.ExecuteText(query).ok());
}

TEST_F(ExecutorTest, StaleCsrSnapshotRejected) {
  CsrGraph csr = CsrGraph::Build(g_);
  Must(g_.AddEdge(jobs_[2], files_[2], "WRITES_TO"));  // snapshot now stale
  QueryExecutor executor(&g_, &csr);
  auto result =
      executor.ExecuteText("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(ExecutorTest, NestedSelectOverCsrBackendMatchesLegacy) {
  const std::string query =
      "SELECT A.pipelineName, AVG(T_CPU) FROM ("
      "  SELECT A, SUM(B.CPU) AS T_CPU FROM ("
      "    MATCH (A:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(B:Job)"
      "    RETURN A, B"
      "  ) GROUP BY A, B"
      ") GROUP BY A.pipelineName";
  Table legacy = Run(query);
  Table over_csr = RunCsr(query, /*parallelism=*/4);
  ASSERT_EQ(legacy.num_rows(), over_csr.num_rows());
  ASSERT_EQ(legacy.num_rows(), 1u);
  EXPECT_EQ(testutil::OwnedRow(legacy.rows()[0]),
            testutil::OwnedRow(over_csr.rows()[0]));
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST_F(ExecutorTest, CostGrowsWithHops) {
  graph::GraphStats stats = graph::GraphStats::Compute(g_);
  auto q2 = ParseQueryText("MATCH (a:File)-[r*1..2]->(b:File) RETURN a, b");
  auto q8 = ParseQueryText("MATCH (a:File)-[r*1..8]->(b:File) RETURN a, b");
  ASSERT_TRUE(q2.ok() && q8.ok());
  EXPECT_LT(EstimateEvalCost(*q2, g_, stats), EstimateEvalCost(*q8, g_, stats));
}

TEST_F(ExecutorTest, CostPrefersSmallerGraph) {
  graph::GraphStats stats = graph::GraphStats::Compute(g_);
  // Same query, graph with double the vertices ~ higher cost.
  PropertyGraph big(g_.schema());
  for (int i = 0; i < 100; ++i) big.AddVertex("Job").value();
  graph::GraphStats big_stats = graph::GraphStats::Compute(big);
  auto q = ParseQueryText("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a");
  ASSERT_TRUE(q.ok());
  EXPECT_LT(EstimateEvalCost(*q, g_, stats),
            EstimateEvalCost(*q, big, big_stats));
}

TEST_F(ExecutorTest, SelectLayerAddsSmallOverhead) {
  graph::GraphStats stats = graph::GraphStats::Compute(g_);
  auto inner = ParseQueryText("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a");
  auto outer = ParseQueryText(
      "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a)");
  ASSERT_TRUE(inner.ok() && outer.ok());
  double ci = EstimateEvalCost(*inner, g_, stats);
  double co = EstimateEvalCost(*outer, g_, stats);
  EXPECT_GT(co, ci);
  EXPECT_LT(co, ci * 2);
}

// ---------------------------------------------------------------------------
// CSR traversal primitives against a per-level reference BFS
// ---------------------------------------------------------------------------

/// Per-level reference for `VarLengthTargets`: each level deduplicates
/// on its own, so a vertex recurs at every depth a walk reaches it, and a
/// vertex becomes a target the first time it is met at a depth in
/// [min_hops, max_hops]. Walks the same typed CSR slices, so the order
/// is comparable.
std::vector<VertexId> ReferenceTargets(const CsrGraph& csr, VertexId start,
                                       graph::EdgeTypeId type, int min_hops,
                                       int max_hops, bool backward) {
  std::vector<VertexId> targets;
  std::set<VertexId> is_target;
  if (min_hops == 0) {
    targets.push_back(start);
    is_target.insert(start);
  }
  std::vector<VertexId> level = {start};
  for (int depth = 1; depth <= max_hops && !level.empty(); ++depth) {
    std::vector<VertexId> next;
    std::set<VertexId> seen;
    for (VertexId v : level) {
      graph::NeighborSpan span =
          backward ? csr.TypedInEdges(v, type) : csr.TypedOutEdges(v, type);
      for (const VertexId u : span) {
        if (!seen.insert(u).second) continue;
        next.push_back(u);
        if (depth >= min_hops && is_target.insert(u).second) {
          targets.push_back(u);
        }
      }
    }
    level = std::move(next);
  }
  return targets;
}

TEST(CsrTraversalTest, VarLengthMatchesPerLevelReferenceOnRandomGraphs) {
  GraphSchema schema;
  schema.AddVertexType("V");
  ASSERT_TRUE(schema.AddEdgeType("A", "V", "V").ok());
  ASSERT_TRUE(schema.AddEdgeType("B", "V", "V").ok());
  const graph::EdgeTypeId type_a = schema.FindEdgeType("A");
  size_t checked = 0;
  size_t one_visited_checks = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    PropertyGraph g(schema);
    const size_t n = 6 + rng() % 20;
    for (size_t i = 0; i < n; ++i) g.AddVertex("V").value();
    const size_t m = n + rng() % (3 * n);
    for (size_t i = 0; i < m; ++i) {
      const VertexId from = static_cast<VertexId>(rng() % n);
      // A self-loop, a parallel edge or a random edge.
      const uint32_t dice = rng() % 10;
      const VertexId to =
          dice == 0 ? from : static_cast<VertexId>(rng() % n);
      const char* type = rng() % 3 == 0 ? "B" : "A";
      ASSERT_TRUE(g.AddEdge(from, to, type).ok());
      if (dice == 1) ASSERT_TRUE(g.AddEdge(from, to, type).ok());
    }
    CsrGraph csr = CsrGraph::Build(g);
    // One traversal for the whole graph, as a runner keeps it: the
    // epochs must separate calls.
    internal::CsrTraversal traversal(csr);
    internal::StepScratch scratch;
    for (graph::EdgeTypeId type : {type_a, graph::kInvalidTypeId}) {
      for (int min_hops : {0, 1, 2, 3}) {
        for (int max_hops = std::max(min_hops, 1); max_hops <= min_hops + 3;
             ++max_hops) {
          for (bool backward : {false, true}) {
            for (VertexId start = 0; start < n; ++start) {
              traversal.VarLengthTargets(start, type, min_hops, max_hops,
                                         backward, &scratch);
              const std::vector<VertexId> want = ReferenceTargets(
                  csr, start, type, min_hops, max_hops, backward);
              ASSERT_EQ(scratch.candidates, want)
                  << "seed " << seed << " start " << start << " *"
                  << min_hops << ".." << max_hops
                  << (backward ? " backward" : " forward");
              ++checked;
              if (min_hops <= 1) ++one_visited_checks;
              if (backward) continue;
              // Connectivity is forward only: every end the reference
              // reaches, and no other.
              const std::set<VertexId> reached(want.begin(), want.end());
              for (VertexId end = 0; end < n; ++end) {
                EXPECT_EQ(traversal.VarLengthConnected(start, end, type,
                                                       min_hops, max_hops,
                                                       &scratch),
                          reached.count(end) == 1)
                    << "seed " << seed << " " << start << " -> " << end
                    << " *" << min_hops << ".." << max_hops;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(one_visited_checks, 400u);
}

// ---------------------------------------------------------------------------
// What ResolveMatch's plan guarantees about its rows
// ---------------------------------------------------------------------------

/// One User, three Jobs, five Files, with parallel edges and a
/// Job -> File -> Job cycle, so a plan that can repeat a row would.
PropertyGraph RowFlagsGraph() {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  schema.AddVertexType("User");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
  EXPECT_TRUE(schema.AddEdgeType("SUBMITS", "User", "Job").ok());
  PropertyGraph g(schema);
  std::vector<VertexId> jobs;
  std::vector<VertexId> files;
  for (int i = 0; i < 3; ++i) jobs.push_back(g.AddVertex("Job").value());
  for (int i = 0; i < 5; ++i) files.push_back(g.AddVertex("File").value());
  const VertexId user = g.AddVertex("User").value();
  auto add = [&](VertexId from, VertexId to, const char* type) {
    EXPECT_TRUE(g.AddEdge(from, to, type).ok());
  };
  add(user, jobs[0], "SUBMITS");
  add(user, jobs[0], "SUBMITS");  // parallel
  add(user, jobs[1], "SUBMITS");
  for (int i = 0; i < 3; ++i) {
    add(jobs[i], files[i], "WRITES_TO");
    add(jobs[i], files[i + 1], "WRITES_TO");
    add(files[i + 1], jobs[(i + 1) % 3], "IS_READ_BY");
  }
  add(jobs[0], files[1], "WRITES_TO");  // parallel
  add(files[4], jobs[0], "IS_READ_BY");
  add(files[4], jobs[0], "IS_READ_BY");  // parallel
  return g;
}

TEST(ResolveMatchTest, RowFlagsFollowThePlan) {
  struct Case {
    const char* text;
    bool rows_distinct;
    bool seeds_disjoint;
  };
  const Case cases[] = {
      // Every slot returned, variable-length edge last (after a gathered
      // middle step).
      {"MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[r*1..2]->(g:File) "
       "RETURN a, f, g",
       true, true},
      {"MATCH (a:File)-[r*0..4]->(b:File) RETURN a, b", true, true},
      // Seeded at the Job end, expanded backward at *2..3.
      {"MATCH (f:File)-[r*2..3]->(j:Job) RETURN f, j", true, true},
      // A hidden middle slot, as in the lineage shape.
      {"MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[r*0..8]->(g:File) "
       "RETURN a, g",
       false, true},
      // A fixed-length final expansion, over parallel edges.
      {"MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f", false, true},
      {"MATCH (u:User)-[:SUBMITS]->(j:Job) RETURN u, j", false, true},
      // The last step is a fixed-length filter edge, which repeats
      // nothing.
      {"MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
       "(b:Job)-[:WRITES_TO]->(f:File) RETURN a, f, b",
       true, true},
      // A disconnected second component, seeded last.
      {"MATCH (u:User)-[:SUBMITS]->(j:Job) (f:File) RETURN u, j, f", true,
       true},
      {"MATCH (u:User)-[:SUBMITS]->(j:Job) (f:File) RETURN j, f", false,
       false},
      // A second component ending in a fixed-length expansion.
      {"MATCH (u:User)-[:SUBMITS]->(j:Job) (a:Job)-[:WRITES_TO]->(f:File) "
       "RETURN u, j, a, f",
       false, true},
      // The top seed's slot hidden.
      {"MATCH (u:User)-[:SUBMITS]->(j:Job) (j:Job)-[r*1..3]->(g:Job) "
       "RETURN j, g",
       false, false},
  };
  PropertyGraph g = RowFlagsGraph();
  CsrGraph csr = CsrGraph::Build(g);
  for (const Case& c : cases) {
    auto q = ParseQueryText(c.text);
    ASSERT_TRUE(q.ok()) << c.text << ": " << q.status();
    auto rm = internal::ResolveMatch(g, q->match());
    ASSERT_TRUE(rm.ok()) << c.text << ": " << rm.status();
    EXPECT_EQ(rm->rows_distinct, c.rows_distinct) << c.text;
    EXPECT_EQ(rm->seeds_disjoint, c.seeds_disjoint) << c.text;
    // Whatever the flags, every CSR execution mode returns the oracle's
    // rows, each once, and the parallel and sharded ones in sequential
    // order.
    QueryExecutor legacy(&g);
    auto want = legacy.Execute(*q);
    ASSERT_TRUE(want.ok()) << c.text;
    ASSERT_GT(want->num_rows(), 0u) << c.text;
    QueryExecutor sequential(&g, &csr);
    auto got = sequential.Execute(*q);
    ASSERT_TRUE(got.ok()) << c.text;
    EXPECT_EQ(testutil::CanonicalRows(*got), testutil::CanonicalRows(*want))
        << c.text;
    for (size_t shards : {size_t{1}, size_t{2}}) {
      ExecutorOptions opts;
      opts.parallelism = 4;
      opts.shards = shards;
      QueryExecutor split(&g, &csr, opts);
      auto split_rows = split.Execute(*q);
      ASSERT_TRUE(split_rows.ok()) << c.text;
      EXPECT_EQ(testutil::OwnedRows(*split_rows), testutil::OwnedRows(*got))
          << c.text << " at shards " << shards;
    }
  }
}

TEST(ExplainRowsTest, ShowsWhetherRowsAreHashed) {
  PropertyGraph g = RowFlagsGraph();
  graph::GraphStats stats = graph::GraphStats::Compute(g);
  auto distinct = ParseQueryText(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[r*1..2]->(g:File) "
      "RETURN a, f, g");
  auto hashed = ParseQueryText(
      "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) "
      "(f:File)-[r*0..8]->(g:File) RETURN a, g) GROUP BY a");
  ASSERT_TRUE(distinct.ok() && hashed.ok());
  const std::string distinct_plan = ExplainQuery(*distinct, g, stats);
  EXPECT_NE(distinct_plan.find("  rows: distinct by construction\n"),
            std::string::npos)
      << distinct_plan;
  EXPECT_EQ(distinct_plan.find("hash-deduplicated"), std::string::npos);
  // The line sits under the MATCH, indented with it.
  const std::string hashed_plan = ExplainQuery(*hashed, g, stats);
  EXPECT_NE(hashed_plan.find("    rows: hash-deduplicated\n"),
            std::string::npos)
      << hashed_plan;
  EXPECT_EQ(hashed_plan.find("distinct by construction"), std::string::npos);
}

TEST(ExplainPlanTest, SeedsAndExpandsInTheExecutorsOrder) {
  // 3 jobs, 5 files: the planner seeds at the job end and walks the
  // variable-length edge backward, whatever order the text lists.
  PropertyGraph g = RowFlagsGraph();
  graph::GraphStats stats = graph::GraphStats::Compute(g);
  auto q = ParseQueryText("MATCH (f:File)-[r*1..2]->(j:Job) RETURN f, j");
  ASSERT_TRUE(q.ok());
  auto rm = internal::ResolveMatch(g, q->match());
  ASSERT_TRUE(rm.ok());
  ASSERT_EQ(rm->plan.size(), 2u);
  ASSERT_EQ(rm->plan[0].kind, internal::Step::kSeed);
  ASSERT_EQ(rm->plan[0].node_slot, 1);  // j

  const std::string plan = ExplainQuery(*q, g, stats);
  const size_t seed = plan.find("  seed (j:Job)  3 vertices\n");
  const size_t expand =
      plan.find("  expand <-[*1..2]- (f:File)  2 bounded graph sweeps\n");
  EXPECT_NE(seed, std::string::npos) << plan;
  EXPECT_NE(expand, std::string::npos) << plan;
  EXPECT_LT(seed, expand) << plan;
  EXPECT_EQ(plan.find("seed (f:File)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("]->"), std::string::npos) << plan;

  // Seeded at the written first node, the same edge walks forward.
  auto forward = ParseQueryText("MATCH (j:Job)-[r*1..2]->(f:File) RETURN j, f");
  ASSERT_TRUE(forward.ok());
  const std::string forward_plan = ExplainQuery(*forward, g, stats);
  EXPECT_NE(forward_plan.find("  seed (j:Job)  3 vertices\n"
                              "  expand -[*1..2]-> (f:File)"),
            std::string::npos)
      << forward_plan;

  // An edge between two bound nodes is a check, not an expansion.
  auto cycle = ParseQueryText(
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "(a:Job)-[:WRITES_TO]->(f:File) RETURN a, b");
  ASSERT_TRUE(cycle.ok());
  const std::string cycle_plan = ExplainQuery(*cycle, g, stats);
  EXPECT_NE(cycle_plan.find("  check (a:Job)-[:WRITES_TO]->(f:File)\n"),
            std::string::npos)
      << cycle_plan;
}

// A fixed-length step walked backward fans out by the in-degree of the
// bound `to` type over the step's edge type, not by `from`'s out-degree.
TEST(ExplainPlanTest, BackwardStepShowsInDegreeOverItsEdgeType) {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("LINKS", "File", "File").ok());
  PropertyGraph g(schema);
  std::vector<VertexId> jobs;
  std::vector<VertexId> files;
  for (int i = 0; i < 6; ++i) jobs.push_back(g.AddVertex("Job").value());
  for (int i = 0; i < 3; ++i) files.push_back(g.AddVertex("File").value());
  auto add = [&](VertexId from, VertexId to, const char* type) {
    EXPECT_TRUE(g.AddEdge(from, to, type).ok());
  };
  add(jobs[0], files[0], "WRITES_TO");
  add(jobs[0], files[1], "WRITES_TO");
  add(jobs[1], files[1], "WRITES_TO");
  for (int i = 1; i < 6; ++i) add(jobs[i], files[2], "WRITES_TO");
  // In-edges of another type, which the figure must not count.
  add(files[0], files[2], "LINKS");
  add(files[1], files[2], "LINKS");
  add(files[0], files[1], "LINKS");

  // 3 files, 6 jobs: the plan seeds at the file and walks WRITES_TO back.
  auto q = ParseQueryText("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f");
  ASSERT_TRUE(q.ok());
  auto rm = internal::ResolveMatch(g, q->match());
  ASSERT_TRUE(rm.ok());
  ASSERT_EQ(rm->plan[0].node_slot, 1);  // f

  // The files' WRITES_TO in-degrees at the cost model's percentile
  // (nearest rank; 90 is one of the summary's exact points).
  const CostModelOptions options;
  ASSERT_EQ(options.degree_alpha, 90);
  std::vector<size_t> in_degrees;
  for (VertexId f : files) {
    size_t degree = 0;
    for (graph::EdgeId e : g.InEdges(f)) {
      degree += g.EdgeTypeName(e) == "WRITES_TO";
    }
    in_degrees.push_back(degree);
  }
  std::sort(in_degrees.begin(), in_degrees.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(options.degree_alpha / 100.0 * double(in_degrees.size())));
  char expected[64];
  std::snprintf(expected, sizeof(expected),
                "  expand <-[:WRITES_TO]- (a:Job)  x%.1f\n",
                double(in_degrees[rank - 1]));

  const std::string plan =
      ExplainQuery(*q, g, graph::GraphStats::Compute(g), options);
  EXPECT_NE(plan.find("  seed (f:File)  3 vertices\n"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find(expected), std::string::npos)
      << "want " << expected << "in\n" << plan;
}

}  // namespace
}  // namespace kaskade::query
