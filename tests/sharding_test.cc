// Sharded snapshot pipeline (EngineOptions::shards >= 2): a sharded
// engine must return tables byte-identical to an unsharded one (row
// order included, traversal expansions equal) for solo, parallel, and
// fused queries across mutation streams; the per-shard SegmentStore
// must stay exact against fresh builds and the one-shard store at every
// prefix; and concurrent snapshot refreshes on disjoint shards (and of
// one view) interleaved with readers must be race-free (this suite runs
// under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/segment_store.h"
#include "csr_test_util.h"
#include "datasets/generators.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "table_test_util.h"

namespace kaskade {
namespace {

using core::Engine;
using core::EngineOptions;
using core::SegmentStore;
using graph::CsrGraph;
using graph::EdgeId;
using graph::GraphDelta;
using graph::PropertyGraph;
using graph::VertexId;

// Multi-segment provenance graph (> 2 * 1024 vertices), so the shard
// partition is non-trivial for K in {2, 4}.
PropertyGraph MakeShardableGraph(uint64_t seed = 11) {
  return datasets::MakeProvenanceGraph({.num_jobs = 600,
                                        .num_files = 1400,
                                        .num_tasks = 700,
                                        .num_machines = 20,
                                        .num_users = 40,
                                        .seed = seed});
}

const char* const kShardQueries[] = {
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a, b",
    "MATCH (u:User)-[:SUBMITS]->(j:Job) (j:Job)-[:SPAWNS]->(t:Task) "
    "RETURN u, t",
    "MATCH (a:File)-[r*1..2]->(b:Task) RETURN a, b",
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 8 RETURN j, f",
};

/// One random mutation batch over the provenance schema; `live` tracks
/// removable edge ids. `max_vertex` clusters insert endpoints below an
/// id bound (so a batch dirties few segments — the workload shape the
/// segment-sharing assertions measure); the default spreads uniformly.
GraphDelta RandomBatch(const PropertyGraph& g, std::mt19937_64* rng,
                       std::vector<EdgeId>* live,
                       VertexId max_vertex = graph::kInvalidId) {
  GraphDelta delta;
  const graph::VertexTypeId job_t = g.schema().FindVertexType("Job");
  const graph::VertexTypeId file_t = g.schema().FindVertexType("File");
  std::vector<VertexId> jobs = g.VerticesOfType(job_t);
  std::vector<VertexId> files = g.VerticesOfType(file_t);
  auto clamp_pool = [max_vertex](std::vector<VertexId>* pool) {
    std::vector<VertexId> kept;
    for (VertexId v : *pool) {
      if (v < max_vertex) kept.push_back(v);
    }
    if (!kept.empty()) *pool = std::move(kept);
  };
  clamp_pool(&jobs);
  clamp_pool(&files);
  const size_t inserts = 8 + (*rng)() % 8;
  for (size_t i = 0; i < inserts; ++i) {
    VertexId j = jobs[(*rng)() % jobs.size()];
    VertexId f = files[(*rng)() % files.size()];
    if ((*rng)() % 2 == 0) {
      delta.AddEdge(j, f, "WRITES_TO", {});
    } else {
      delta.AddEdge(f, j, "IS_READ_BY", {});
    }
  }
  const size_t removals = live->size() > 16 ? 4 + (*rng)() % 4 : 0;
  for (size_t i = 0; i < removals; ++i) {
    const size_t at = (*rng)() % live->size();
    delta.RemoveEdge((*live)[at]);
    live->erase(live->begin() + at);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Engine end to end: a sharded engine (per-shard snapshot pipeline,
// sequential and block-parallel MATCH, fused batch path included)
// returns tables byte-identical to an unsharded sequential engine fed
// the same mutation stream, at the same traversal cost.
// ---------------------------------------------------------------------------

/// Rows in order, and the traversal expansions that produced them.
void ExpectSameResult(const Result<core::ExecutionResult>& expected,
                      const Result<core::ExecutionResult>& got,
                      const std::string& context) {
  ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();
  ASSERT_TRUE(got.ok()) << context << ": " << got.status();
  EXPECT_EQ(expected->expansions, got->expansions) << context;
  ASSERT_EQ(expected->table.num_rows(), got->table.num_rows()) << context;
  for (size_t r = 0; r < expected->table.num_rows(); ++r) {
    ASSERT_EQ(testutil::OwnedRow(expected->table.rows()[r]),
              testutil::OwnedRow(got->table.rows()[r]))
        << context << " row " << r;
  }
}

TEST(ShardingTest, EngineShardedMatchesUnshardedWithFusion) {
  for (size_t shards : {2u, 4u}) {
    for (size_t parallelism : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " parallelism=" + std::to_string(parallelism));
      Engine baseline(MakeShardableGraph());
      EngineOptions sharded_opts;
      sharded_opts.shards = shards;
      sharded_opts.executor.parallelism = parallelism;
      Engine sharded(MakeShardableGraph(), sharded_opts);

      std::mt19937_64 rng(913 + shards);
      // Only edges this stream inserted are removable, and inserts
      // cluster into the first segment's id window, so each batch
      // dirties one segment and the rest stay refcount-shared — the
      // workload shape the telemetry assertions below measure.
      std::vector<EdgeId> live;
      // Same-shape batch members (only constants differ) so the fused
      // path groups them.
      const std::vector<std::string> fused_batch = {
          "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 4 RETURN j, f",
          "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 8 RETURN j, f",
          "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 16 RETURN j, f",
      };

      constexpr int kSteps = 4;
      for (int step = 0; step < kSteps; ++step) {
        if (step > 0) {
          GraphDelta delta =
              RandomBatch(baseline.base_graph(), &rng, &live,
                          static_cast<VertexId>(graph::kCsrSegmentVertices));
          auto a = baseline.ApplyDelta(delta);
          ASSERT_TRUE(a.ok()) << a.status();
          auto b = sharded.ApplyDelta(delta);
          ASSERT_TRUE(b.ok()) << b.status();
          for (EdgeId e : a->new_edges) live.push_back(e);
        }
        const std::string at_step = " step " + std::to_string(step);
        for (const char* text : kShardQueries) {
          ExpectSameResult(baseline.Execute(text), sharded.Execute(text),
                           text + at_step);
          if (::testing::Test::HasFatalFailure()) return;
        }
        auto expected_batch = baseline.ExecuteBatch(fused_batch);
        auto got_batch = sharded.ExecuteBatch(fused_batch);
        ASSERT_EQ(expected_batch.size(), got_batch.size());
        for (size_t m = 0; m < expected_batch.size(); ++m) {
          ExpectSameResult(expected_batch[m], got_batch[m],
                           "member " + std::to_string(m) + at_step);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      // The sharded pipeline actually ran: per-shard writer-lock
      // counters exist and segments were shared across refreshes.
      core::EngineTelemetry t = sharded.TelemetrySnapshot();
      EXPECT_EQ(t.shard_writer_acquisitions.size(), shards);
      EXPECT_GT(t.patch_segments_shared, 0u);
      uint64_t acquisitions = 0;
      for (uint64_t a : t.shard_writer_acquisitions) acquisitions += a;
      EXPECT_GT(acquisitions, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// SegmentStore differential: the assembled per-shard snapshot equals a
// fresh Build at every mutation prefix, sharing clean segments.
// ---------------------------------------------------------------------------

TEST(ShardingTest, SegmentStoreSnapshotMatchesFreshBuildAtEveryPrefix) {
  PropertyGraph g = MakeShardableGraph(23);
  SegmentStore store(&g, 4);
  std::mt19937_64 rng(5);
  // Clustered stream (see RandomBatch): each batch dirties only the
  // first segment, leaving the others to be shared across refreshes.
  std::vector<EdgeId> live;

  size_t segments_shared = 0;
  size_t segments_copied = 0;
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    GraphDelta delta =
        RandomBatch(g, &rng, &live,
                    static_cast<VertexId>(graph::kCsrSegmentVertices));
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : applied->new_edges) live.push_back(e);
    store.NoteDelta(delta.edge_removals);

    SegmentStore::Outcome outcome;
    graph::CsrPatchStats stats;
    auto snap = store.Snapshot(&outcome, &stats);
    ASSERT_NE(snap, nullptr);
    EXPECT_NE(outcome, SegmentStore::Outcome::kHit);
    segments_shared += stats.segments_shared;
    segments_copied += stats.segments_copied;
    CsrGraph fresh = CsrGraph::Build(g);
    testutil::ExpectCsrEqual(*snap, fresh, g,
                             "store step " + std::to_string(step));
    // Cached until the next change: a second request is a hit returning
    // the same object.
    auto again = store.Snapshot(&outcome);
    EXPECT_EQ(again.get(), snap.get());
    EXPECT_EQ(outcome, SegmentStore::Outcome::kHit);
  }
  // O(delta) claim at the store level: across the run most segments
  // were shared, not rebuilt (the graph spans several segments and each
  // batch touches a handful of vertices).
  EXPECT_GT(segments_shared, segments_copied);
  EXPECT_EQ(store.writer_acquisitions().size(), 4u);
}

// Sharded == unsharded under uniform churn: every batch dirties every
// segment, and a K-shard store patches them through the same
// `PatchSegment` routine as a one-shard store over the same graph — the
// two produce byte-identical segments and re-derive the same rows.
TEST(ShardingTest, SegmentStorePatchesMatchUnshardedChainUnderUniformChurn) {
  for (size_t shards : {2u, 4u}) {
    const std::string where = "shards=" + std::to_string(shards);
    PropertyGraph g = MakeShardableGraph(41);
    SegmentStore store(&g, shards);
    SegmentStore unsharded(&g, 1);
    ASSERT_NE(store.Snapshot(), nullptr);
    ASSERT_NE(unsharded.Snapshot(), nullptr);
    std::mt19937_64 rng(77 + shards);
    std::vector<EdgeId> live;
    for (EdgeId e = 0; e < static_cast<EdgeId>(g.NumEdges()); ++e) {
      live.push_back(e);
    }
    std::vector<VertexId> jobs =
        g.VerticesOfType(g.schema().FindVertexType("Job"));
    const std::vector<VertexId> tasks =
        g.VerticesOfType(g.schema().FindVertexType("Task"));
    const VertexId a_file =
        g.VerticesOfType(g.schema().FindVertexType("File")).front();
    for (int step = 0; step < 8; ++step) {
      const std::string context = where + " step " + std::to_string(step);
      GraphDelta delta = RandomBatch(g, &rng, &live);
      for (int i = 0; i < 24; ++i) {
        // Extra uniform inserts reaching every vertex type, so every
        // segment is dirty.
        delta.AddEdge(jobs[rng() % jobs.size()], tasks[rng() % tasks.size()],
                      "SPAWNS");
      }
      // The newest Job, so a tail segment of appended Jobs is dirty too.
      delta.AddEdge(jobs.back(), a_file, "WRITES_TO");
      if (step == 3) {
        // Appended Jobs straddling the next segment boundary.
        const size_t n = g.NumVertices();
        const size_t count =
            graph::kCsrSegmentVertices - n % graph::kCsrSegmentVertices + 3;
        for (size_t j = 0; j < count; ++j) {
          delta.AddVertex("Job");
          delta.AddEdge(static_cast<VertexId>(n + j), a_file, "WRITES_TO");
        }
      }
      auto applied = graph::ApplyDeltaToGraph(&g, delta);
      ASSERT_TRUE(applied.ok()) << applied.status();
      for (EdgeId e : applied->new_edges) live.push_back(e);
      for (VertexId v : applied->new_vertices) jobs.push_back(v);

      store.NoteDelta(delta.edge_removals);
      unsharded.NoteDelta(delta.edge_removals);
      SegmentStore::Outcome outcome;
      graph::CsrPatchStats sharded_stats;
      auto snap = store.Snapshot(&outcome, &sharded_stats);
      ASSERT_NE(snap, nullptr) << context;
      EXPECT_EQ(outcome, SegmentStore::Outcome::kPatch) << context;
      graph::CsrPatchStats stats;
      auto chain = unsharded.Snapshot(&outcome, &stats);
      EXPECT_EQ(outcome, SegmentStore::Outcome::kPatch) << context;
      ASSERT_EQ(stats.segments_shared, 0u)
          << context << ": churn left a segment clean; test premise broken";
      EXPECT_EQ(sharded_stats.vertices_rederived, stats.vertices_rederived)
          << context;
      EXPECT_EQ(sharded_stats.dirty_vertices, stats.dirty_vertices) << context;
      EXPECT_EQ(stats.vertices_rederived, stats.dirty_vertices) << context;
      testutil::ExpectSegmentsIdentical(*snap, *chain, context);
      testutil::ExpectSegmentsIdentical(*snap, CsrGraph::Build(g), context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target): readers refreshing disjoint stale shards
// in parallel, racing on the per-shard writer locks, interleaved with
// serialized mutators. Every assembled snapshot must equal the fresh
// build of the graph state it was taken at.
// ---------------------------------------------------------------------------

TEST(ShardingTest, ConcurrentShardRefreshesAndReadersAreRaceFree) {
  constexpr size_t kShards = 4;
  constexpr int kRounds = 20;
  PropertyGraph g = MakeShardableGraph(31);
  SegmentStore store(&g, kShards);
  std::mt19937_64 rng(17);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.NumEdges()); ++e) {
    live.push_back(e);
  }

  for (int round = 0; round < kRounds; ++round) {
    // Mutation phase (exclusive, as under the engine writer lock).
    GraphDelta delta = RandomBatch(g, &rng, &live);
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : applied->new_edges) live.push_back(e);
    store.NoteDelta(delta.edge_removals);

    // Reader phase: several threads race to refresh the stale shards —
    // each shard's writer lock arbitrates — and each takes a full
    // snapshot.
    constexpr size_t kReaders = 6;
    std::vector<std::shared_ptr<const CsrGraph>> snaps(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back(
          [&store, &snaps, t] { snaps[t] = store.Snapshot(); });
    }
    for (std::thread& t : readers) t.join();

    CsrGraph fresh = CsrGraph::Build(g);
    for (size_t t = 0; t < kReaders; ++t) {
      ASSERT_NE(snaps[t], nullptr) << "reader " << t;
      // All readers adopt the published snapshot for the version.
      EXPECT_EQ(snaps[t].get(), snaps[0].get());
    }
    testutil::ExpectCsrEqual(*snaps[0], fresh, g,
                             "round " + std::to_string(round));
  }
}

// A view's snapshots come from its own one-shard store, reached through
// that store's shard and cache locks: after each maintained batch, four
// readers racing SnapshotFor on the view all get one snapshot, equal to
// a fresh build of the view graph.
TEST(ShardingTest, ConcurrentViewSnapshotReadersShareOnePatchedSnapshot) {
  Engine engine(MakeShardableGraph(53));
  core::ViewDefinition connector;
  connector.kind = core::ViewKind::kKHopConnector;
  connector.k = 2;
  connector.source_type = "Job";
  connector.target_type = "Job";
  ASSERT_TRUE(engine.AddMaterializedView(connector).ok());
  const core::CatalogEntry* entry = engine.catalog().Find(connector.Name());
  ASSERT_NE(entry, nullptr);
  const core::ViewHandle handle = entry->handle;
  ASSERT_NE(engine.catalog().SnapshotFor(handle), nullptr);
  std::mt19937_64 rng(19);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(engine.base_graph().NumEdges());
       ++e) {
    live.push_back(e);
  }

  for (int round = 0; round < 12; ++round) {
    const std::string context = "round " + std::to_string(round);
    auto report =
        engine.ApplyDelta(RandomBatch(engine.base_graph(), &rng, &live));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->views_incremental, 1u)
        << context << ": view rematerialized; test premise broken";
    for (EdgeId e : report->new_edges) live.push_back(e);

    constexpr size_t kReaders = 4;
    std::vector<std::shared_ptr<const CsrGraph>> snaps(kReaders);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&engine, &snaps, handle, t] {
        snaps[t] = engine.catalog().SnapshotFor(handle);
      });
    }
    for (std::thread& t : readers) t.join();
    for (size_t t = 0; t < kReaders; ++t) {
      ASSERT_NE(snaps[t], nullptr) << context << " reader " << t;
      EXPECT_EQ(snaps[t].get(), snaps[0].get()) << context << " reader " << t;
    }
    const graph::PropertyGraph& view = engine.catalog().Get(handle)->view.graph;
    testutil::ExpectSegmentsIdentical(*snaps[0], CsrGraph::Build(view),
                                      context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Engine-level interleaving: concurrent Execute readers (each forcing
// per-shard snapshot refreshes) against serialized ApplyDelta writers.
TEST(ShardingTest, EngineConcurrentReadersDuringMutationStream) {
  EngineOptions opts;
  opts.shards = 4;
  Engine engine(MakeShardableGraph(41), opts);
  std::mt19937_64 rng(3);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(engine.base_graph().NumEdges());
       ++e) {
    live.push_back(e);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop, &failures, t] {
      const char* text = kShardQueries[t % 5];
      while (!stop.load(std::memory_order_acquire)) {
        auto result = engine.Execute(text);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int step = 0; step < 15; ++step) {
    GraphDelta delta = RandomBatch(engine.base_graph(), &rng, &live);
    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << report.status();
    for (EdgeId e : report->new_edges) live.push_back(e);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace kaskade
