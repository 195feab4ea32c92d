// Tests for the decomposed Engine / ViewCatalog / Planner architecture:
// plan-cache correctness under catalog and base-graph changes, generation
// monotonicity, stable view handles, batched execution, and concurrent
// reader execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/materializer.h"
#include "core/planner.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "graph/delta.h"
#include "query/parser.h"
#include "table_test_util.h"

namespace kaskade::core {
namespace {

using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

PropertyGraph SmallProv(uint64_t seed = 42) {
  datasets::ProvOptions options;
  options.num_jobs = 60;
  options.num_files = 120;
  options.include_auxiliary = false;
  options.seed = seed;
  return datasets::MakeProvenanceGraph(options);
}

ViewDefinition JobConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

ViewDefinition FileConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "File";
  def.target_type = "File";
  return def;
}

/// Appends one isolated Job vertex through the writer API.
Status AppendJob(Engine* engine) {
  return engine->MutateBaseGraph([](PropertyGraph* g) {
    return g->AddVertex("Job", {{"CPU", PropertyValue(1.0)}}).status();
  });
}

// ---------------------------------------------------------------------------
// ViewCatalog
// ---------------------------------------------------------------------------

TEST(ViewCatalogTest, HandlesAreStableAcrossMutations) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  auto job = catalog.Add(JobConnector());
  ASSERT_TRUE(job.ok()) << job.status();
  auto file = catalog.Add(FileConnector());
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_NE(*job, *file);
  EXPECT_NE(*job, kInvalidViewHandle);

  const CatalogEntry* by_handle = catalog.Get(*job);
  ASSERT_NE(by_handle, nullptr);
  EXPECT_EQ(by_handle->name(), JobConnector().Name());
  // Dropping one entry leaves the other handle valid.
  ASSERT_TRUE(catalog.Remove(FileConnector().Name()).ok());
  EXPECT_EQ(catalog.Get(*file), nullptr);
  ASSERT_NE(catalog.Get(*job), nullptr);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(ViewCatalogTest, GenerationIsMonotonic) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  uint64_t g0 = catalog.generation();
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  uint64_t g1 = catalog.generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(catalog.RefreshAll().ok());
  uint64_t g2 = catalog.generation();
  EXPECT_GT(g2, g1);
  catalog.NoteBaseGraphChanged();
  uint64_t g3 = catalog.generation();
  EXPECT_GT(g3, g2);
  ASSERT_TRUE(catalog.Remove(JobConnector().Name()).ok());
  EXPECT_GT(catalog.generation(), g3);
}

TEST(ViewCatalogTest, DuplicateAndMissingNames) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  EXPECT_EQ(catalog.Add(JobConnector()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Remove("no_such_view").code(), StatusCode::kNotFound);
}

TEST(ViewCatalogTest, MaintainerAttachedOnlyForSupportedKinds) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  ViewDefinition agg;
  agg.kind = ViewKind::kVertexAggregatorSummarizer;
  agg.source_type = "Job";
  agg.group_by_property = "pipelineName";
  ASSERT_TRUE(catalog.Add(agg).ok());

  const CatalogEntry* connector = catalog.Find(JobConnector().Name());
  ASSERT_NE(connector, nullptr);
  EXPECT_NE(connector->maintainer, nullptr);
  const CatalogEntry* aggregator = catalog.Find(agg.Name());
  ASSERT_NE(aggregator, nullptr);
  EXPECT_EQ(aggregator->maintainer, nullptr);
}

// ---------------------------------------------------------------------------
// Plan cache correctness
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, InvalidatedByAddMaterializedView) {
  Engine engine(SmallProv());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto before = engine.Execute(text);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_FALSE(before->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  auto after = engine.Execute(text);
  ASSERT_TRUE(after.ok()) << after.status();
  // The cached raw plan must not survive the catalog change.
  EXPECT_TRUE(after->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
}

TEST(PlanCacheTest, InvalidatedByRefreshViews) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  ASSERT_TRUE(engine.Execute(text).ok());
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  ASSERT_TRUE(engine.RefreshViews().ok());
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 2u);  // stale generation: miss
  EXPECT_EQ(engine.plan_cache_hits(), 1u);    // telemetry preserved
}

TEST(PlanCacheTest, RepeatedQueriesHitWithoutIntermediateChanges) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto first = engine.Execute(text);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto repeat = engine.Execute(text);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(repeat->view_name, first->view_name);
    EXPECT_EQ(repeat->table.num_rows(), first->table.num_rows());
  }
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 5u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PropertyGraph base = SmallProv();
  PlannerOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;  // deterministic eviction order
  Planner planner(options);
  ViewCatalog catalog(&base);

  const std::string q1 = datasets::AncestorsQueryText("Job", 4);
  const std::string q2 = datasets::DescendantsQueryText("Job", 4);
  const std::string q3 = "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";

  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());
  ASSERT_TRUE(planner.PlanFor(q2, base, catalog).ok());
  EXPECT_EQ(planner.cache_size(), 2u);
  ASSERT_TRUE(planner.PlanFor(q3, base, catalog).ok());  // evicts q1
  EXPECT_EQ(planner.cache_size(), 2u);
  EXPECT_EQ(planner.cache_misses(), 3u);

  ASSERT_TRUE(planner.PlanFor(q2, base, catalog).ok());  // still cached
  EXPECT_EQ(planner.cache_hits(), 1u);
  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());  // was evicted
  EXPECT_EQ(planner.cache_misses(), 4u);
}

TEST(PlanCacheTest, RemoveViewFallsBackToRawPlan) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto with_view = engine.Execute(text);
  ASSERT_TRUE(with_view.ok());
  EXPECT_TRUE(with_view->used_view);

  ASSERT_TRUE(engine.RemoveView(JobConnector().Name()).ok());
  auto without_view = engine.Execute(text);
  ASSERT_TRUE(without_view.ok()) << without_view.status();
  EXPECT_FALSE(without_view->used_view);
  // Row counts agree: the view was an equivalent rewrite.
  EXPECT_EQ(without_view->table.num_rows(), with_view->table.num_rows());
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

TEST(ExecuteBatchTest, MatchesSequentialExecute) {
  EngineOptions options;
  options.batch_workers = 4;
  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());

  std::vector<std::string> batch = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
      datasets::AncestorsQueryText("Job", 4),  // repeat: cache hit path
      "MATCH (this is not a query",            // per-query error isolation
  };

  std::vector<Result<ExecutionResult>> batched = engine.ExecuteBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto sequential = engine.Execute(batch[i]);
    ASSERT_EQ(batched[i].ok(), sequential.ok()) << batch[i];
    if (!sequential.ok()) continue;
    EXPECT_EQ(batched[i]->used_view, sequential->used_view);
    EXPECT_EQ(batched[i]->view_name, sequential->view_name);
    EXPECT_EQ(batched[i]->executed_query, sequential->executed_query);
    EXPECT_EQ(batched[i]->table.SortedRows(), sequential->table.SortedRows());
  }
}

TEST(ExecuteBatchTest, SingleWorkerAndEmptyBatch) {
  EngineOptions options;
  options.batch_workers = 1;
  Engine engine(SmallProv(), options);
  EXPECT_TRUE(engine.ExecuteBatch({}).empty());
  auto results = engine.ExecuteBatch({datasets::AncestorsQueryText("Job", 4)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

TEST(ExecuteBatchTest, PersistentPoolIsReusedAcrossBatches) {
  EngineOptions options;
  options.batch_workers = 4;
  Engine engine(SmallProv(), options);
  // Distinct shapes, so each query is its own task and the batch needs
  // multiple workers.
  std::vector<std::string> batch = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
  };
  EXPECT_EQ(engine.batch_pool_size(), 0u);  // lazy: nothing started yet
  for (int round = 0; round < 5; ++round) {
    auto results = engine.ExecuteBatch(batch);
    for (const auto& result : results) ASSERT_TRUE(result.ok());
    // The caller is one of the 4 workers, so the pool holds 3 threads —
    // started by the first batch and reused (not respawned) afterwards.
    EXPECT_EQ(engine.batch_pool_size(), 3u) << "round " << round;
  }
}

TEST(ExecuteBatchTest, ShapeGroupsFuseAndMatchSolo) {
  Engine engine(SmallProv());
  // Same shape, different constants: one fused group of 3. The
  // no-WHERE query is a different shape and runs solo.
  std::vector<std::string> batch = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_0' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_1' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_2' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
  };
  auto results = engine.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << batch[i] << ": " << results[i].status();
    auto solo = engine.Execute(batch[i]);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(testutil::OwnedRows(results[i]->table),
              testutil::OwnedRows(solo->table))
        << batch[i];
  }
  EXPECT_TRUE(results[0]->fused);
  EXPECT_TRUE(results[1]->fused);
  EXPECT_TRUE(results[2]->fused);
  EXPECT_FALSE(results[3]->fused);

  EngineTelemetry t = engine.TelemetrySnapshot();
  EXPECT_EQ(t.fused_groups, 1u);
  EXPECT_EQ(t.fused_members, 3u);
  EXPECT_GT(t.traversal_expansions, 0u);
  // The tracker saw the fused members as fused executions.
  size_t fused_hits = 0;
  for (const QueryObservation& obs : engine.workload().Snapshot().entries) {
    fused_hits += obs.fused_hits;
  }
  EXPECT_EQ(fused_hits, 3u);
}

TEST(ExecuteBatchTest, FusionRespectsGateAndMinGroupSize) {
  std::vector<std::string> batch = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_0' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_1' "
      "RETURN j, f",
  };
  {
    EngineOptions options;
    options.executor.fusion.enabled = false;
    Engine engine(SmallProv(), options);
    auto results = engine.ExecuteBatch(batch);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok());
      EXPECT_FALSE(result->fused);
    }
    EXPECT_EQ(engine.TelemetrySnapshot().fused_groups, 0u);
  }
  {
    // A pair is below min_group_size = 3: solo path, no fusion.
    EngineOptions options;
    options.executor.fusion.min_group_size = 3;
    Engine engine(SmallProv(), options);
    auto results = engine.ExecuteBatch(batch);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok());
      EXPECT_FALSE(result->fused);
    }
    EXPECT_EQ(engine.TelemetrySnapshot().fused_members, 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, FourThreadExecuteSmoke) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::vector<std::string> queries = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
  };
  // Reference results, computed single-threaded.
  std::vector<size_t> expected_rows;
  for (const std::string& text : queries) {
    auto r = engine.Execute(text);
    ASSERT_TRUE(r.ok()) << r.status();
    expected_rows.push_back(r->table.num_rows());
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        size_t qi = (t + i) % queries.size();
        auto r = engine.Execute(queries[qi]);
        if (!r.ok() || r->table.num_rows() != expected_rows[qi]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every execution was either a hit or a miss; nothing was lost.
  EXPECT_EQ(engine.plan_cache_hits() + engine.plan_cache_misses(),
            static_cast<size_t>(kThreads * kItersPerThread) + queries.size());
}

TEST(ConcurrencyTest, ReadersInterleaveWithWriters) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine.Execute(text);
        if (!r.ok()) reader_failures.fetch_add(1);
      }
    });
  }
  // Writer: append vertices and refresh views while readers hammer away.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendJob(&engine).ok());
    ASSERT_TRUE(engine.RefreshViews().ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  // Still consistent after the dust settles.
  auto final_result = engine.Execute(text);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(final_result->used_view);
}

// ---------------------------------------------------------------------------
// ApplyDelta writer path
// ---------------------------------------------------------------------------

/// Canonical (orig_src, orig_dst, paths) multiset of a connector view.
std::multiset<std::tuple<int64_t, int64_t, int64_t>> ConnectorCanon(
    const MaterializedView& view) {
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> canon;
  const PropertyGraph& g = view.graph;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!g.IsEdgeLive(e)) continue;
    const graph::EdgeRecord& rec = g.Edge(e);
    canon.insert({g.VertexProperty(rec.source, "orig_id").as_int(),
                  g.VertexProperty(rec.target, "orig_id").as_int(),
                  g.EdgeProperty(e, "paths").as_int()});
  }
  return canon;
}

/// The deterministic delta sequence the ApplyDelta tests apply: delete
/// the i-th surviving seed edge on even steps, insert a fresh
/// WRITES_TO/IS_READ_BY pairing on odd ones.
std::vector<graph::GraphDelta> MakeDeltaSequence(const PropertyGraph& base,
                                                 int count) {
  std::vector<graph::GraphDelta> deltas;
  VertexId some_job = base.VerticesOfType(base.schema().FindVertexType("Job"))
                          .front();
  std::vector<VertexId> files =
      base.VerticesOfType(base.schema().FindVertexType("File"));
  for (int i = 0; i < count; ++i) {
    graph::GraphDelta delta;
    if (i % 2 == 0) {
      delta.RemoveEdge(static_cast<graph::EdgeId>(i));
    } else {
      VertexId file = files[static_cast<size_t>(i) % files.size()];
      delta.AddEdge(some_job, file, "WRITES_TO");
      delta.AddEdge(file, some_job, "IS_READ_BY");
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

TEST(ApplyDeltaTest, BatchMatchesSingletonDeltasAndScratch) {
  // The same mixed mutation set applied (a) as one batch, (b) as
  // singleton deltas, (c) by re-materializing from scratch must agree.
  PropertyGraph base_a = SmallProv();
  PropertyGraph base_b = SmallProv();
  Engine engine_a(std::move(base_a));
  Engine engine_b(std::move(base_b));
  ASSERT_TRUE(engine_a.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(engine_b.AddMaterializedView(JobConnector()).ok());

  std::vector<graph::GraphDelta> ops =
      MakeDeltaSequence(engine_a.base_graph(), 9);
  graph::GraphDelta batch;
  for (const graph::GraphDelta& op : ops) {
    for (const auto& ins : op.edge_inserts) batch.edge_inserts.push_back(ins);
    for (graph::EdgeId e : op.edge_removals) batch.RemoveEdge(e);
  }

  auto batched = engine_a.ApplyDelta(batch);
  ASSERT_TRUE(batched.ok()) << batched.status();
  for (const graph::GraphDelta& op : ops) {
    auto single = engine_b.ApplyDelta(op);
    ASSERT_TRUE(single.ok()) << single.status();
  }

  const CatalogEntry* view_a = engine_a.catalog().Find(JobConnector().Name());
  const CatalogEntry* view_b = engine_b.catalog().Find(JobConnector().Name());
  ASSERT_NE(view_a, nullptr);
  ASSERT_NE(view_b, nullptr);
  EXPECT_EQ(ConnectorCanon(view_a->view), ConnectorCanon(view_b->view));

  auto scratch = Materialize(engine_a.base_graph(), JobConnector());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(ConnectorCanon(view_a->view), ConnectorCanon(*scratch));
}

TEST(ApplyDeltaTest, GenerationBumpsOncePerBatch) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  graph::GraphDelta batch;
  std::vector<graph::GraphDelta> ops =
      MakeDeltaSequence(engine.base_graph(), 7);
  for (const graph::GraphDelta& op : ops) {
    for (const auto& ins : op.edge_inserts) batch.edge_inserts.push_back(ins);
    for (graph::EdgeId e : op.edge_removals) batch.RemoveEdge(e);
  }
  uint64_t before = engine.catalog().generation();
  ASSERT_TRUE(engine.ApplyDelta(batch).ok());
  EXPECT_EQ(engine.catalog().generation(), before + 1);
}

TEST(ApplyDeltaTest, RejectsInvalidDeltasWithoutMutating) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  size_t edges_before = engine.base_graph().NumLiveEdges();
  uint64_t gen_before = engine.catalog().generation();

  graph::GraphDelta bad;
  bad.RemoveEdge(static_cast<graph::EdgeId>(1u << 30));  // no such edge
  EXPECT_EQ(engine.ApplyDelta(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.base_graph().NumLiveEdges(), edges_before);

  graph::GraphDelta bad_type;
  bad_type.AddEdge(0, 0, "NO_SUCH_TYPE");
  EXPECT_EQ(engine.ApplyDelta(bad_type).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.base_graph().NumLiveEdges(), edges_before);
  // Failed deltas never advanced the catalog.
  EXPECT_EQ(engine.catalog().generation(), gen_before);
}

TEST(ConcurrencyTest, ApplyDeltaRacingReadersSeesOnlyDeltaBoundaries) {
  // Readers racing the ApplyDelta writer must observe a result that
  // matches some delta prefix — never a torn view. Row counts for every
  // prefix are precomputed on an engine without views (raw plans), then
  // readers hammer a view-rewritten engine while the writer applies the
  // same deltas.
  const std::string query =
      "MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) "
      "RETURN x, y";
  constexpr int kDeltas = 14;

  std::vector<graph::GraphDelta> deltas;
  std::set<size_t> expected_rows;
  size_t final_rows = 0;
  {
    Engine reference(SmallProv());
    deltas = MakeDeltaSequence(reference.base_graph(), kDeltas);
    auto r0 = reference.Execute(query);
    ASSERT_TRUE(r0.ok()) << r0.status();
    expected_rows.insert(r0->table.num_rows());
    for (const graph::GraphDelta& delta : deltas) {
      ASSERT_TRUE(reference.ApplyDelta(delta).ok());
      auto r = reference.Execute(query);
      ASSERT_TRUE(r.ok()) << r.status();
      expected_rows.insert(r->table.num_rows());
      final_rows = r->table.num_rows();
    }
  }

  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int> torn_results{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine.Execute(query);
        if (!r.ok()) {
          reader_failures.fetch_add(1);
          continue;
        }
        if (expected_rows.count(r->table.num_rows()) == 0) {
          torn_results.fetch_add(1);
        }
      }
    });
  }
  for (const graph::GraphDelta& delta : deltas) {
    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << report.status();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(torn_results.load(), 0);
  // Plans cached before a write are re-bound after it, never run stale.
  EXPECT_EQ(engine.stale_plan_fallbacks(), 0u);

  // After the dust settles the view-backed answer matches the reference
  // final state, and the rewrite is still in play.
  auto final_result = engine.Execute(query);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(final_result->used_view);
  EXPECT_EQ(final_result->table.num_rows(), final_rows);
}

// ---------------------------------------------------------------------------
// Plan templates: literal-free keys, catalog statistics, plan epoch
// ---------------------------------------------------------------------------

/// An anchored 2-hop Job->Job read (the JobConnector serves it); only
/// the job name varies.
std::string AnchoredRead(const std::string& job) {
  return "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
         "WHERE a.name = '" + job + "' RETURN a, b";
}

std::vector<query::Table::Row> SortedRows(const query::Table& table) {
  std::vector<query::Table::Row> rows = testutil::OwnedRows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Sorted rows of `text` on a fresh engine over the same base graph and
/// ready views: the answer no cached state can have influenced. (A
/// maintained view numbers its vertices differently from a fresh one,
/// so row order may differ; the row multiset may not.)
std::vector<query::Table::Row> FreshRows(const Engine& engine,
                                         const std::string& text) {
  Engine fresh{PropertyGraph(engine.base_graph())};
  for (const CatalogEntry* entry : engine.catalog().Entries()) {
    if (entry->state != ViewState::kReady) continue;
    EXPECT_TRUE(fresh.AddMaterializedView(entry->view.definition).ok());
  }
  auto result = fresh.Execute(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? SortedRows(result->table)
                     : std::vector<query::Table::Row>{};
}

TEST(PlanCacheTest, LiteralsOfOneShapeShareOnePlanTemplate) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  auto first = engine.Execute(AnchoredRead("job_3"));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  auto second = engine.Execute(AnchoredRead("job_7"));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(second->view_name, first->view_name);
  // The hit was bound to its own literal, not the cached one.
  EXPECT_NE(second->executed_query.find("job_7"), std::string::npos);
  EXPECT_EQ(SortedRows(second->table),
            FreshRows(engine, AnchoredRead("job_7")));
  EXPECT_EQ(SortedRows(first->table), FreshRows(engine, AnchoredRead("job_3")));
  // One template, one tracker entry, represented by the first text.
  WorkloadSnapshot workload = engine.workload().Snapshot();
  ASSERT_EQ(workload.entries.size(), 1u);
  EXPECT_EQ(workload.entries[0].executions, 2u);
  EXPECT_NE(workload.entries[0].query_text.find("job_3"), std::string::npos);
}

TEST(PlanCacheTest, PredicateViewLiteralsKeepSeparateTemplates) {
  // A predicate summarizer serves only queries carrying its exact
  // constant on every node, so those constants stay in the template
  // key: each literal keeps its own (different) plan.
  Engine engine(SmallProv());
  ViewDefinition hot;
  hot.kind = ViewKind::kVertexInclusionSummarizer;
  hot.type_list = {"Job", "File"};
  hot.predicate_property = "CPU";
  hot.predicate_op = PredicateOp::kGt;
  hot.predicate_value = PropertyValue(50.0);
  ASSERT_TRUE(engine.AddMaterializedView(hot).ok());
  const std::string covered =
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
      "WHERE a.CPU > 50.0 AND f.CPU > 50.0 RETURN a, f";
  const std::string uncovered =
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
      "WHERE a.CPU > 60.0 AND f.CPU > 60.0 RETURN a, f";
  for (int round = 0; round < 2; ++round) {
    auto c = engine.Execute(covered);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_TRUE(c->used_view);
    auto u = engine.Execute(uncovered);
    ASSERT_TRUE(u.ok()) << u.status();
    EXPECT_FALSE(u->used_view);
  }
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_EQ(engine.plan_cache_hits(), 2u);
}

TEST(PlanCacheTest, SmallBaseWritesKeepThePlanDriftReplans) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(engine.Execute(AnchoredRead("job_1")).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  // Small writes through both writer APIs leave every statistic within
  // its drift threshold: the plan epoch holds and the template is
  // re-bound, at the new generation, to the post-write graph.
  const uint64_t epoch = engine.catalog().plan_epoch();
  std::vector<graph::GraphDelta> deltas =
      MakeDeltaSequence(engine.base_graph(), 6);
  for (const graph::GraphDelta& delta : deltas) {
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    auto r = engine.Execute(AnchoredRead("job_0"));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->used_view);
    EXPECT_EQ(SortedRows(r->table), FreshRows(engine, AnchoredRead("job_0")));
  }
  ASSERT_TRUE(AppendJob(&engine).ok());
  ASSERT_TRUE(engine.RefreshViews().ok());  // moves the epoch itself
  const uint64_t refreshed = engine.catalog().plan_epoch();
  EXPECT_GT(refreshed, epoch);
  ASSERT_TRUE(engine.Execute(AnchoredRead("job_2")).ok());
  ASSERT_TRUE(AppendJob(&engine).ok());
  EXPECT_EQ(engine.catalog().plan_epoch(), refreshed);
  ASSERT_TRUE(engine.Execute(AnchoredRead("job_4")).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_EQ(engine.plan_cache_hits(), 7u);
  EXPECT_EQ(engine.stale_plan_fallbacks(), 0u);

  // A batch that grows the base past the threshold (10% of its live
  // vertices, floor 32) refreshes the base statistics and replans.
  graph::GraphDelta growth;
  for (int i = 0; i < 40; ++i) growth.AddVertex("Job");
  ASSERT_TRUE(engine.ApplyDelta(growth).ok());
  EXPECT_GT(engine.catalog().plan_epoch(), refreshed);
  EXPECT_EQ(engine.catalog().base_stats().num_vertices(),
            engine.base_graph().NumLiveVertices());
  ASSERT_TRUE(engine.Execute(AnchoredRead("job_5")).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 3u);
}

TEST(PlanCacheTest, PlannerVisibleChangesInvalidate) {
  // Publish (via AnalyzeWorkload), drop, and a fault-injected
  // quarantine each move the plan epoch; the next read replans and its
  // answer matches a fresh engine's.
  std::atomic<bool> fail_maintenance{false};
  EngineOptions options;
  options.fault_hooks.hook = [&](FaultSite site, const std::string&) {
    return site == FaultSite::kMaintainerApply && fail_maintenance.load()
               ? Status::Internal("injected maintenance fault")
               : Status::OK();
  };
  Engine engine(SmallProv(), options);
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  size_t misses = 0;
  auto expect_replanned = [&](bool used_view) {
    auto r = engine.Execute(text);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->used_view, used_view);
    EXPECT_EQ(engine.plan_cache_misses(), ++misses);
    EXPECT_EQ(SortedRows(r->table), FreshRows(engine, text));
  };
  expect_replanned(/*used_view=*/false);

  ASSERT_TRUE(engine.AnalyzeWorkload({text}).ok());  // background Publish
  ASSERT_GT(engine.catalog().num_ready(), 0u);
  expect_replanned(/*used_view=*/true);

  fail_maintenance.store(true);
  ASSERT_TRUE(engine.ApplyDelta(MakeDeltaSequence(engine.base_graph(), 2)[1])
                  .ok());
  fail_maintenance.store(false);
  EXPECT_EQ(engine.catalog().num_ready(), 0u);
  EXPECT_GT(engine.catalog().num_quarantined(), 0u);
  expect_replanned(/*used_view=*/false);

  for (const CatalogEntry* entry : engine.catalog().Entries()) {
    ASSERT_TRUE(engine.RemoveView(entry->name()).ok());
  }
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  expect_replanned(/*used_view=*/true);
  ASSERT_TRUE(engine.RemoveView(JobConnector().Name()).ok());
  expect_replanned(/*used_view=*/false);
  EXPECT_EQ(engine.stale_plan_fallbacks(), 0u);
}

}  // namespace
}  // namespace kaskade::core
