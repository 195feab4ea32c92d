// End-to-end tests: view selection, the Kaskade facade, and — most
// importantly — the equivalence contract: a query rewritten over a
// materialized view returns exactly the rows of the raw query (§VII-C
// "These rewritings are equivalent and produce the same results").

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/materializer.h"
#include "core/rewriter.h"
#include "core/view_selector.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "query/executor.h"
#include "query/parser.h"

namespace kaskade::core {
namespace {

using graph::PropertyGraph;
using query::Table;

query::Query ParseOrDie(const std::string& text) {
  auto q = query::ParseQueryText(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(*q);
}

/// Executes `text` against `g` and returns sorted rows.
std::vector<Table::Row> RunSorted(const PropertyGraph& g,
                                  const std::string& text) {
  query::QueryExecutor executor(&g);
  auto result = executor.ExecuteText(text);
  EXPECT_TRUE(result.ok()) << result.status() << "\nquery: " << text;
  return result.ok() ? result->SortedRows() : std::vector<Table::Row>{};
}

PropertyGraph SmallFilteredProv(uint64_t seed = 42) {
  datasets::ProvOptions options;
  options.num_jobs = 120;
  options.num_files = 260;
  options.include_auxiliary = false;
  options.seed = seed;
  return datasets::MakeProvenanceGraph(options);
}

ViewDefinition JobToJob2Hop() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

/// Maps vertex-id cells of view-result rows back to base-graph ids via
/// the view's "orig_id" property so they compare equal to raw results.
std::vector<Table::Row> MapToBaseIds(const PropertyGraph& view_graph,
                                     const Table& table) {
  std::vector<Table::Row> rows;
  for (const auto& row : table.rows()) {
    Table::Row mapped(row.begin(), row.end());
    for (size_t c = 0; c < row.size(); ++c) {
      if (table.columns()[c].is_vertex) {
        auto v = static_cast<graph::VertexId>(row[c].as_int());
        mapped[c] = view_graph.VertexProperty(v, "orig_id");
      }
    }
    rows.push_back(std::move(mapped));
  }
  std::sort(rows.begin(), rows.end(), [](const Table::Row& a,
                                         const Table::Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
  return rows;
}

// ---------------------------------------------------------------------------
// Rewrite equivalence (the core correctness property)
// ---------------------------------------------------------------------------

/// Property sweep over generator seeds: the ancestors query Q2 rewritten
/// over a 2-hop job-to-job connector returns exactly the raw rows.
class RewriteEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteEquivalenceTest, AncestorsQueryMatchesRawResults) {
  PropertyGraph base = SmallFilteredProv(GetParam());
  auto view = Materialize(base, JobToJob2Hop());
  ASSERT_TRUE(view.ok()) << view.status();

  std::string raw_text = datasets::AncestorsQueryText("Job", 4);
  query::Query raw = ParseOrDie(raw_text);
  auto rewritten = RewriteQueryWithView(raw, JobToJob2Hop(), base.schema());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();

  std::vector<Table::Row> raw_rows = RunSorted(base, raw_text);
  query::QueryExecutor view_executor(&view->graph);
  auto view_result = view_executor.Execute(*rewritten);
  ASSERT_TRUE(view_result.ok()) << view_result.status();
  std::vector<Table::Row> view_rows =
      MapToBaseIds(view->graph, *view_result);

  ASSERT_FALSE(raw_rows.empty());
  EXPECT_EQ(raw_rows, view_rows) << "seed=" << GetParam();
}

TEST_P(RewriteEquivalenceTest, BlastRadiusAggregatesMatchRawResults) {
  PropertyGraph base = SmallFilteredProv(GetParam());
  auto view = Materialize(base, JobToJob2Hop());
  ASSERT_TRUE(view.ok()) << view.status();

  query::Query raw = ParseOrDie(datasets::BlastRadiusQueryText());
  auto rewritten = RewriteQueryWithView(raw, JobToJob2Hop(), base.schema());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();

  // Aggregate outputs (pipeline name + average CPU) are plain values, so
  // the tables compare directly.
  std::vector<Table::Row> raw_rows =
      RunSorted(base, datasets::BlastRadiusQueryText());
  query::QueryExecutor view_executor(&view->graph);
  auto view_result = view_executor.Execute(*rewritten);
  ASSERT_TRUE(view_result.ok()) << view_result.status();
  std::vector<Table::Row> view_rows = view_result->SortedRows();
  ASSERT_FALSE(raw_rows.empty());
  ASSERT_EQ(raw_rows.size(), view_rows.size());
  for (size_t i = 0; i < raw_rows.size(); ++i) {
    ASSERT_EQ(raw_rows[i].size(), view_rows[i].size());
    EXPECT_EQ(raw_rows[i][0], view_rows[i][0]);
    EXPECT_NEAR(raw_rows[i][1].ToDouble(), view_rows[i][1].ToDouble(), 1e-6)
        << "seed=" << GetParam() << " row=" << i;
  }
}

TEST_P(RewriteEquivalenceTest, SummarizerIdentityMatchesRawResults) {
  // Full raw graph vs Job/File-filtered view: lineage queries must agree.
  datasets::ProvOptions options;
  options.num_jobs = 80;
  options.num_files = 150;
  options.num_tasks = 120;
  options.seed = GetParam();
  PropertyGraph raw = datasets::MakeProvenanceGraph(options);

  ViewDefinition filter;
  filter.kind = ViewKind::kVertexInclusionSummarizer;
  filter.type_list = {"Job", "File"};
  auto view = Materialize(raw, filter);
  ASSERT_TRUE(view.ok()) << view.status();

  std::string text = datasets::DescendantsQueryText("Job", 4);
  std::vector<Table::Row> raw_rows = RunSorted(raw, text);
  query::QueryExecutor view_executor(&view->graph);
  auto view_result = view_executor.ExecuteText(text);
  ASSERT_TRUE(view_result.ok()) << view_result.status();
  std::vector<Table::Row> view_rows =
      MapToBaseIds(view->graph, *view_result);
  ASSERT_FALSE(raw_rows.empty());
  EXPECT_EQ(raw_rows, view_rows) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(RewriteEquivalenceTest, CoauthorQueryOverDblpConnector) {
  datasets::DblpOptions options;
  options.num_authors = 150;
  options.num_articles = 300;
  options.include_venues = false;
  PropertyGraph base = datasets::MakeDblpGraph(options);

  ViewDefinition view_def;
  view_def.kind = ViewKind::kKHopConnector;
  view_def.k = 2;
  view_def.source_type = "Author";
  view_def.target_type = "Author";
  auto view = Materialize(base, view_def);
  ASSERT_TRUE(view.ok()) << view.status();

  query::Query raw = ParseOrDie(datasets::CoauthorQueryText());
  auto rewritten = RewriteQueryWithView(raw, view_def, base.schema());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();

  std::vector<Table::Row> raw_rows =
      RunSorted(base, datasets::CoauthorQueryText());
  query::QueryExecutor view_executor(&view->graph);
  auto view_result = view_executor.Execute(*rewritten);
  ASSERT_TRUE(view_result.ok()) << view_result.status();
  EXPECT_EQ(raw_rows, MapToBaseIds(view->graph, *view_result));
  EXPECT_FALSE(raw_rows.empty());
}

// ---------------------------------------------------------------------------
// View selection (§V-B)
// ---------------------------------------------------------------------------

TEST(ViewSelectorTest, BlastRadiusWorkloadSelectsJobConnector) {
  PropertyGraph base = SmallFilteredProv();
  SelectorOptions options;
  options.budget_edges = 1e6;
  ViewSelector selector(&base, options);
  std::vector<WorkloadEntry> workload;
  workload.push_back(
      WorkloadEntry{ParseOrDie(datasets::BlastRadiusQueryText()), 1.0});
  auto report = selector.Select(workload);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->candidates.empty());
  EXPECT_FALSE(report->selected.empty());
  EXPECT_LE(report->selected_size_edges, options.budget_edges);
  // The 2-hop job-to-job connector must be among the selected views: it
  // is the cheapest view that serves the query.
  bool found = false;
  for (const ScoredView& v : report->selected) {
    if (v.definition.Name() == "khop2[Job->Job]") found = true;
    EXPECT_GE(v.improvement, 0);
  }
  EXPECT_TRUE(found);
}

TEST(ViewSelectorTest, ZeroBudgetSelectsNothing) {
  PropertyGraph base = SmallFilteredProv();
  SelectorOptions options;
  options.budget_edges = 0;
  ViewSelector selector(&base, options);
  std::vector<WorkloadEntry> workload;
  workload.push_back(
      WorkloadEntry{ParseOrDie(datasets::BlastRadiusQueryText()), 1.0});
  auto report = selector.Select(workload);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->selected.empty());
  EXPECT_FALSE(report->candidates.empty());
}

TEST(ViewSelectorTest, GreedyNeverBeatsBranchAndBound) {
  PropertyGraph base = SmallFilteredProv();
  std::vector<WorkloadEntry> workload;
  workload.push_back(
      WorkloadEntry{ParseOrDie(datasets::BlastRadiusQueryText()), 1.0});
  workload.push_back(
      WorkloadEntry{ParseOrDie(datasets::AncestorsQueryText("Job", 4)), 2.0});

  SelectorOptions bnb_options;
  bnb_options.budget_edges = 50'000;
  ViewSelector bnb(&base, bnb_options);
  auto bnb_report = bnb.Select(workload);
  ASSERT_TRUE(bnb_report.ok());

  SelectorOptions greedy_options = bnb_options;
  greedy_options.use_greedy = true;
  ViewSelector greedy(&base, greedy_options);
  auto greedy_report = greedy.Select(workload);
  ASSERT_TRUE(greedy_report.ok());

  auto total_value = [](const SelectionReport& r) {
    double v = 0;
    for (const ScoredView& s : r.selected) v += s.value;
    return v;
  };
  EXPECT_GE(total_value(*bnb_report), total_value(*greedy_report) - 1e-9);
}

// ---------------------------------------------------------------------------
// Engine facade (Fig. 2 end to end)
// ---------------------------------------------------------------------------

TEST(EngineTest, AnalyzeWorkloadMaterializesAndExecuteUsesViews) {
  EngineOptions options;
  options.selector.budget_edges = 1e6;
  Engine engine(SmallFilteredProv(), options);

  auto report =
      engine.AnalyzeWorkload({datasets::BlastRadiusQueryText(),
                              datasets::AncestorsQueryText("Job", 4)});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(engine.catalog().empty());

  auto via_engine = engine.Execute(datasets::BlastRadiusQueryText());
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();
  EXPECT_TRUE(via_engine->used_view);
  EXPECT_FALSE(via_engine->view_name.empty());

  // The engine's answer equals direct raw execution.
  std::vector<Table::Row> raw_rows =
      RunSorted(engine.base_graph(), datasets::BlastRadiusQueryText());
  std::vector<Table::Row> engine_rows = via_engine->table.SortedRows();
  ASSERT_EQ(raw_rows.size(), engine_rows.size());
  for (size_t i = 0; i < raw_rows.size(); ++i) {
    EXPECT_EQ(raw_rows[i][0], engine_rows[i][0]);
    EXPECT_NEAR(raw_rows[i][1].ToDouble(), engine_rows[i][1].ToDouble(),
                1e-6);
  }
}

TEST(EngineTest, ExecuteFallsBackToRawWhenNoViewApplies) {
  Engine engine(SmallFilteredProv());
  // No views materialized: raw execution.
  auto result =
      engine.Execute("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->used_view);
  EXPECT_GT(result->table.num_rows(), 0u);
}

TEST(EngineTest, DuplicateViewRejected) {
  Engine engine(SmallFilteredProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobToJob2Hop()).ok());
  EXPECT_EQ(engine.AddMaterializedView(JobToJob2Hop()).code(),
            StatusCode::kAlreadyExists);
}

TEST(EngineTest, CheaperPlanWins) {
  Engine engine(SmallFilteredProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobToJob2Hop()).ok());
  // The ancestors query benefits from the connector.
  auto result = engine.Execute(datasets::AncestorsQueryText("Job", 4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->used_view);
  EXPECT_EQ(result->view_name, "khop2[Job->Job]");
  // A query the connector cannot serve still runs raw.
  auto raw_only =
      engine.Execute("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN f");
  ASSERT_TRUE(raw_only.ok());
  EXPECT_FALSE(raw_only->used_view);
}

// ---------------------------------------------------------------------------
// Dataset generators
// ---------------------------------------------------------------------------

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  PropertyGraph a = SmallFilteredProv(9);
  PropertyGraph b = SmallFilteredProv(9);
  EXPECT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  PropertyGraph c = SmallFilteredProv(10);
  EXPECT_NE(a.NumEdges(), c.NumEdges());
}

TEST(DatasetsTest, ProvSchemaShape) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      datasets::ProvOptions{.num_jobs = 10, .num_files = 10, .num_tasks = 5});
  EXPECT_EQ(g.schema().num_vertex_types(), 5u);
  EXPECT_EQ(g.schema().num_edge_types(), 6u);
  // Bipartite lineage core: job-job schema paths only at even k.
  graph::VertexTypeId job = g.schema().FindVertexType("Job");
  EXPECT_FALSE(g.schema().HasKHopSchemaPath(job, job, 3));
  EXPECT_TRUE(g.schema().HasKHopSchemaPath(job, job, 2));
}

TEST(DatasetsTest, SocialGraphIsPowerLawRoadIsNot) {
  PropertyGraph social = datasets::MakeSocialGraph(
      datasets::SocialOptions{.num_vertices = 3000});
  graph::DegreeDistribution social_dist =
      graph::ComputeOutDegreeDistribution(social);
  EXPECT_LT(social_dist.powerlaw_slope, -0.5);
  EXPECT_GT(social_dist.r_squared, 0.7);

  PropertyGraph road =
      datasets::MakeRoadGraph(datasets::RoadOptions{.width = 40, .height = 40});
  graph::GraphStats stats = graph::GraphStats::Compute(road);
  // Bounded degree: nothing above 4.
  EXPECT_LE(stats.overall().p100, 4);
}

TEST(DatasetsTest, PrefixSubgraphTakesFirstEdges) {
  PropertyGraph g = SmallFilteredProv();
  PropertyGraph prefix = datasets::PrefixSubgraph(g, 100);
  EXPECT_EQ(prefix.NumEdges(), 100u);
  EXPECT_LE(prefix.NumVertices(), 200u);
  // Oversized request clamps.
  PropertyGraph all = datasets::PrefixSubgraph(g, g.NumEdges() + 999);
  EXPECT_EQ(all.NumEdges(), g.NumEdges());
}

TEST(DatasetsTest, ZipfSamplerBounds) {
  for (double u : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    int v = datasets::SampleZipf(u, 2.0, 100);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
  EXPECT_EQ(datasets::SampleZipf(0.5, 2.0, 1), 1);
  // Heavier tail -> larger high-quantile draws.
  EXPECT_GE(datasets::SampleZipf(0.999, 1.5, 10'000),
            datasets::SampleZipf(0.999, 3.0, 10'000));
}

TEST(DatasetsTest, WorkloadTextsParse) {
  EXPECT_TRUE(query::ParseQueryText(datasets::BlastRadiusQueryText()).ok());
  EXPECT_TRUE(
      query::ParseQueryText(datasets::BlastRadiusRewrittenText()).ok());
  EXPECT_TRUE(
      query::ParseQueryText(datasets::AncestorsQueryText("Job", 4)).ok());
  EXPECT_TRUE(
      query::ParseQueryText(datasets::DescendantsQueryText("Person", 4)).ok());
  EXPECT_TRUE(query::ParseQueryText(datasets::CoauthorQueryText()).ok());
}

TEST(DatasetsTest, RewrittenListingFourTextMatchesRewriterOutput) {
  PropertyGraph base = SmallFilteredProv();
  query::Query raw = ParseOrDie(datasets::BlastRadiusQueryText());
  auto rewritten = RewriteQueryWithView(raw, JobToJob2Hop(), base.schema());
  ASSERT_TRUE(rewritten.ok());
  query::Query canned = ParseOrDie(datasets::BlastRadiusRewrittenText());
  EXPECT_EQ(rewritten->ToString(), canned.ToString());
}

}  // namespace
}  // namespace kaskade::core
