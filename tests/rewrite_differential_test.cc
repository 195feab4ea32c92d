// Rewrite-vs-raw differential suite: every query the engine may answer
// through a view rewrite must return exactly the rows the raw query
// returns over the base graph — in base-graph vertex ids — across view
// kinds, hop windows, and mutation streams. This pins the fix for the
// carried-over divergence where rewritten plans returned view-local ids
// (e.g. AncestorsQueryText("Job", 4) through a k=2 Job->Job connector
// returning {1, 15} where the raw plan returned {1, 19}): results are
// now mapped through `MaterializedView::view_to_base` after execution.
//
// Hop-composition audit (the rewrite rule this suite exercises): a
// variable-length window [lr, ur] maps onto a k-hop connector as
// [ceil(lr/k), floor(ur/k)] connector hops. Soundness (every rewritten
// row is a raw row) holds unconditionally: h connector hops replay an
// (h*k)-hop base path with lr <= h*k <= ur. Completeness (every raw row
// is a rewritten row) holds when lr <= k — every feasible base length
// in the window then decomposes into whole connector hops, possibly
// skipping parity-infeasible lengths (the bipartite provenance schema
// makes odd Job->Job lengths infeasible, which is why 1..4 aligns with
// k=2). For lr > k, closed walks shorter than lr could in principle be
// assembled from connector hops that revisit vertices; the rewriter
// rejects those windows (`MisalignedWindowsRejected` in
// csr_and_cache_test.cc), so the suite below only sees windows the rule
// accepts — and asserts exact equality, not containment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "query/executor.h"
#include "table_test_util.h"

namespace kaskade {
namespace {

using core::Engine;
using core::ViewDefinition;
using core::ViewKind;
using graph::EdgeId;
using graph::GraphDelta;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;
using testutil::CanonicalRows;

ViewDefinition Connector(ViewKind kind, const std::string& type, int k) {
  ViewDefinition def;
  def.kind = kind;
  def.k = k;
  def.source_type = type;
  def.target_type = type;
  return def;
}

/// True when `expected` and `got` hold the same columns and the same
/// rows in some order. A view plan may emit rows in a different order
/// (set semantics permits that), and an aggregate over them then sums
/// in a different order, so doubles agree to a relative 1e-9; every
/// other cell, vertex ids (in *base-graph* ids) included, exactly.
::testing::AssertionResult SameAnswer(const query::Table& expected,
                                      const query::Table& got) {
  if (expected.num_columns() != got.num_columns()) {
    return ::testing::AssertionFailure() << "column counts differ";
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const query::Column& want = expected.columns()[c];
    const query::Column& have = got.columns()[c];
    if (want.name != have.name || want.is_vertex != have.is_vertex) {
      return ::testing::AssertionFailure()
             << "column " << c << " is " << have.name << " (vertex "
             << have.is_vertex << "), expected " << want.name << " (vertex "
             << want.is_vertex << ")";
    }
  }
  const std::vector<query::Table::Row> want = expected.SortedRows();
  const std::vector<query::Table::Row> have = got.SortedRows();
  if (want.size() != have.size()) {
    return ::testing::AssertionFailure()
           << have.size() << " rows, expected " << want.size();
  }
  for (size_t r = 0; r < want.size(); ++r) {
    for (size_t c = 0; c < want[r].size(); ++c) {
      const PropertyValue& a = want[r][c];
      const PropertyValue& b = have[r][c];
      const bool same =
          a.is_double() && b.is_double()
              ? std::abs(a.as_double() - b.as_double()) <=
                    1e-9 * std::max(1.0, std::abs(a.as_double()))
              : a.is_int() == b.is_int() && a == b;
      if (!same) {
        return ::testing::AssertionFailure()
               << "row " << r << " column " << c << " is " << b.ToString()
               << ", expected " << a.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs every query in `pool` through the engine (rewrite eligible) and
/// raw over the engine's base graph, asserting the same answer. Adds
/// how many engine executions used a view to `*used_view`, and the
/// texts that did to `*served`.
void ComparePool(Engine* engine, const std::vector<std::string>& pool,
                 const std::string& context, size_t* used_view,
                 std::set<std::string>* served = nullptr) {
  SCOPED_TRACE(context);
  query::QueryExecutor raw(&engine->base_graph());
  for (const std::string& text : pool) {
    auto expected = raw.ExecuteText(text);
    ASSERT_TRUE(expected.ok()) << context << " " << text << ": "
                               << expected.status();
    auto got = engine->Execute(text);
    ASSERT_TRUE(got.ok()) << context << " " << text << ": " << got.status();
    if (got->used_view) {
      ++*used_view;
      if (served != nullptr) served->insert(text);
    }
    EXPECT_TRUE(SameAnswer(*expected, got->table))
        << context << " " << text << " diverged (used_view="
        << got->used_view << ", view=" << got->view_name << ")";
  }
}

/// Runs `texts` as one `ExecuteBatch` (same-shape members fuse into one
/// shared traversal) and compares every member with the raw executor.
/// Returns how many members a fused group served from a view.
size_t CompareBatch(Engine* engine, const std::vector<std::string>& texts,
                    const std::string& context) {
  SCOPED_TRACE(context);
  query::QueryExecutor raw(&engine->base_graph());
  std::vector<Result<core::ExecutionResult>> results =
      engine->ExecuteBatch(texts);
  EXPECT_EQ(results.size(), texts.size());
  size_t fused_from_view = 0;
  for (size_t i = 0; i < results.size() && i < texts.size(); ++i) {
    auto expected = raw.ExecuteText(texts[i]);
    EXPECT_TRUE(expected.ok()) << texts[i] << ": " << expected.status();
    EXPECT_TRUE(results[i].ok()) << texts[i] << ": " << results[i].status();
    if (!expected.ok() || !results[i].ok()) continue;
    if (results[i]->fused && results[i]->used_view) ++fused_from_view;
    EXPECT_TRUE(SameAnswer(*expected, results[i]->table))
        << context << " batch member " << i << " " << texts[i]
        << " diverged (fused=" << results[i]->fused
        << ", view=" << results[i]->view_name << ")";
  }
  return fused_from_view;
}

TEST(RewriteDifferentialTest, ProvenancePoolMatchesRawAcrossMutations) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .include_auxiliary = false});
  Engine engine(std::move(base));
  ASSERT_TRUE(
      engine.AddMaterializedView(Connector(ViewKind::kKHopConnector, "Job", 2))
          .ok());
  ASSERT_TRUE(engine
                  .AddMaterializedView(
                      Connector(ViewKind::kSameVertexTypeConnector, "Job", 4))
                  .ok());

  // Template pool: aligned windows (rewrite eligible), a misaligned one
  // (must run raw and still match), and both traversal directions.
  const std::vector<std::string> match_pool = {
      datasets::AncestorsQueryText("Job", 2),
      datasets::AncestorsQueryText("Job", 3),
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 2),
      datasets::DescendantsQueryText("Job", 4),
  };
  // SELECT stacks over rewritable MATCHes: Table IV Q1 (its inner layer
  // groups by vertex pairs, its outer one by a vertex property), a
  // GROUP BY whose output is a vertex column (mapped to base ids after
  // the SELECT ran on view ids), and a projection reading a vertex
  // property through the view's own ids.
  const std::string kGroupByNode =
      "SELECT node, COUNT(*) AS ancestors FROM (" +
      datasets::AncestorsQueryText("Job", 4) + ") GROUP BY node";
  const std::string kPropertyRead =
      "SELECT node, descendant, descendant.CPU FROM (" +
      datasets::DescendantsQueryText("Job", 4) +
      ") WHERE descendant.CPU > -1";
  std::vector<std::string> pool = match_pool;
  pool.push_back(datasets::BlastRadiusQueryText());
  pool.push_back(kGroupByNode);
  pool.push_back(kPropertyRead);

  // The batch: each MATCH twice, so every shape forms a fused group.
  std::vector<std::string> batch;
  for (const std::string& text : match_pool) {
    batch.push_back(text);
    batch.push_back(text);
  }

  const graph::VertexTypeId job_t =
      engine.base_graph().schema().FindVertexType("Job");
  const graph::VertexTypeId file_t =
      engine.base_graph().schema().FindVertexType("File");
  std::vector<VertexId> jobs = engine.base_graph().VerticesOfType(job_t);
  std::vector<VertexId> files = engine.base_graph().VerticesOfType(file_t);

  size_t used_view = 0;
  size_t fused_from_view = 0;
  std::set<std::string> served;
  constexpr int kSteps = 4;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0) {
      // Mutate through the engine (views maintained incrementally) and
      // re-compare: the rewrite must stay exact as the view drifts from
      // its original materialization.
      GraphDelta delta;
      delta.AddEdge(jobs[(step * 7) % jobs.size()],
                    files[(step * 13) % files.size()], "WRITES_TO", {});
      delta.AddEdge(files[(step * 11) % files.size()],
                    jobs[(step * 5) % jobs.size()], "IS_READ_BY", {});
      auto report = engine.ApplyDelta(std::move(delta));
      ASSERT_TRUE(report.ok()) << report.status();
    }
    const std::string context = "prov step " + std::to_string(step);
    ComparePool(&engine, pool, context, &used_view, &served);
    if (HasFatalFailure()) return;
    fused_from_view += CompareBatch(&engine, batch, context);
  }
  // The suite must exercise the rewrite path, not pass because the
  // planner always chose the raw plan: every SELECT stack is served by
  // a view at least once, and so are fused batch groups.
  EXPECT_GT(used_view, 0u);
  EXPECT_EQ(served.count(datasets::BlastRadiusQueryText()), 1u);
  EXPECT_EQ(served.count(kGroupByNode), 1u);
  EXPECT_EQ(served.count(kPropertyRead), 1u);
  EXPECT_GT(fused_from_view, 0u);
}

TEST(RewriteDifferentialTest, DblpPoolMatchesRawAcrossMutations) {
  PropertyGraph base = datasets::MakeDblpGraph(
      {.num_authors = 50, .num_articles = 100, .include_venues = false});
  Engine engine(std::move(base));
  ASSERT_TRUE(engine
                  .AddMaterializedView(Connector(
                      ViewKind::kSameVertexTypeConnector, "Author", 2))
                  .ok());

  const std::vector<std::string> pool = {
      "MATCH (a1:Author)-[r*1..2]->(a2:Author) RETURN a1, a2",
      datasets::CoauthorQueryText(),
  };

  const graph::VertexTypeId author_t =
      engine.base_graph().schema().FindVertexType("Author");
  const graph::VertexTypeId article_t =
      engine.base_graph().schema().FindVertexType("Article");
  std::vector<VertexId> authors = engine.base_graph().VerticesOfType(author_t);
  std::vector<VertexId> articles =
      engine.base_graph().VerticesOfType(article_t);

  size_t used_view = 0;
  constexpr int kSteps = 3;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0) {
      GraphDelta delta;
      delta.AddEdge(authors[(step * 3) % authors.size()],
                    articles[(step * 17) % articles.size()], "WROTE", {});
      delta.AddEdge(articles[(step * 17) % articles.size()],
                    authors[(step * 3) % authors.size()], "WRITTEN_BY", {});
      auto report = engine.ApplyDelta(std::move(delta));
      ASSERT_TRUE(report.ok()) << report.status();
    }
    ComparePool(&engine, pool, "dblp step " + std::to_string(step),
                &used_view);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(used_view, 0u);
}

// The original divergence scenario, pinned as a regression: a mutation
// appends a Job consuming existing files, and the rewritten
// AncestorsQueryText("Job", 4) must report the *base* ids of the new
// job's ancestors — not the connector view's compact ids.
TEST(RewriteDifferentialTest, AppendedJobAncestorsReportedInBaseIds) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .include_auxiliary = false});
  Engine engine(std::move(base));
  ASSERT_TRUE(
      engine.AddMaterializedView(Connector(ViewKind::kKHopConnector, "Job", 2))
          .ok());

  Status mutation = engine.MutateBaseGraph([](PropertyGraph* g) {
    VertexId new_job =
        g->AddVertex("Job", {{"CPU", graph::PropertyValue(5.0)}}).value();
    const graph::VertexTypeId file_t = g->schema().FindVertexType("File");
    size_t linked = 0;
    for (VertexId f : g->VerticesOfType(file_t)) {
      if (g->InDegree(f) > 0 && linked < 2) {
        auto edge = g->AddEdge(f, new_job, "IS_READ_BY");
        if (!edge.ok()) return edge.status();
        ++linked;
      }
    }
    return linked == 2 ? Status::OK()
                       : Status::Internal("expected two linkable files");
  });
  ASSERT_TRUE(mutation.ok()) << mutation;
  ASSERT_TRUE(engine.RefreshViews().ok());

  const std::string text = datasets::AncestorsQueryText("Job", 4);
  query::QueryExecutor raw(&engine.base_graph());
  auto expected = raw.ExecuteText(text);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = engine.Execute(text);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->used_view);
  EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(got->table));
  EXPECT_FALSE(expected->rows().empty());
}

}  // namespace
}  // namespace kaskade
