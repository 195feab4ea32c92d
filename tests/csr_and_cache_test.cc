// Tests for the CSR snapshot substrate, the same-vertex-type connector
// rewrite, and the facade's plan cache.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/engine.h"
#include "core/materializer.h"
#include "core/rewriter.h"
#include "core/segment_store.h"
#include "csr_test_util.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "query/executor.h"
#include "query/parser.h"

namespace kaskade {
namespace {

using core::SegmentStore;
using graph::CsrGraph;
using graph::PropertyGraph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

TEST(CsrTest, TopologyMatchesSource) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .num_tasks = 20});
  CsrGraph csr = CsrGraph::Build(g);
  ASSERT_EQ(csr.NumVertices(), g.NumVertices());
  ASSERT_EQ(csr.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(csr.OutDegree(v), g.OutDegree(v));
    EXPECT_EQ(csr.InDegree(v), g.InDegree(v));
    // Neighbor multisets agree.
    std::multiset<VertexId> expected;
    for (graph::EdgeId e : g.OutEdges(v)) {
      expected.insert(g.Edge(e).target);
    }
    std::multiset<VertexId> got(csr.OutNeighbors(v).begin(),
                                csr.OutNeighbors(v).end());
    EXPECT_EQ(got, expected) << "vertex " << v;
  }
}

TEST(CsrTest, EmptyGraph) {
  graph::GraphSchema schema;
  schema.AddVertexType("V");
  PropertyGraph g(schema);
  CsrGraph csr = CsrGraph::Build(g);
  EXPECT_EQ(csr.NumVertices(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
}

TEST(CsrTest, TypedSlicesMatchFilteredAdjacency) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .num_tasks = 20});
  CsrGraph csr = CsrGraph::Build(g);
  const size_t num_types = g.schema().num_edge_types();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    size_t typed_total = 0;
    size_t typed_in_total = 0;
    for (graph::EdgeTypeId t = 0; t < num_types; ++t) {
      // Expected: the target multiset of v's out-edges of type t,
      // straight from the adjacency lists.
      std::multiset<VertexId> expected;
      for (graph::EdgeId e : g.OutEdges(v)) {
        if (g.Edge(e).type == t) expected.insert(g.Edge(e).target);
      }
      graph::NeighborSpan span = csr.TypedOutEdges(v, t);
      EXPECT_EQ(std::multiset<VertexId>(span.begin(), span.end()), expected)
          << "vertex " << v << " type " << t;
      typed_total += span.size;
      // In-side symmetry.
      std::multiset<VertexId> expected_in;
      for (graph::EdgeId e : g.InEdges(v)) {
        if (g.Edge(e).type == t) expected_in.insert(g.Edge(e).source);
      }
      graph::NeighborSpan in_span = csr.TypedInEdges(v, t);
      EXPECT_EQ(std::multiset<VertexId>(in_span.begin(), in_span.end()),
                expected_in)
          << "vertex " << v << " type " << t;
      typed_in_total += in_span.size;
    }
    // Typed slices tile the full slices exactly.
    EXPECT_EQ(typed_total, csr.OutDegree(v));
    EXPECT_EQ(typed_in_total, csr.InDegree(v));
    // The untyped slices are the whole thing.
    EXPECT_EQ(csr.TypedOutEdges(v, graph::kInvalidTypeId).size,
              csr.OutDegree(v));
    EXPECT_EQ(csr.TypedInEdges(v, graph::kInvalidTypeId).size,
              csr.InDegree(v));
  }
}

TEST(CsrTest, TombstonedEdgesDroppedFromTypedSlices) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 20, .num_files = 40, .num_tasks = 10});
  // Remove every third live edge.
  size_t removed = 0;
  for (graph::EdgeId e = 0; e < g.NumEdges(); e += 3) {
    if (g.RemoveEdge(e).ok()) ++removed;
  }
  ASSERT_GT(removed, 0u);
  CsrGraph csr = CsrGraph::Build(g);
  EXPECT_EQ(csr.NumEdges(), g.NumLiveEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    // The slice holds exactly the targets of v's live out-edges.
    std::multiset<VertexId> live_targets;
    for (graph::EdgeId e : g.OutEdges(v)) {
      if (g.IsEdgeLive(e)) live_targets.insert(g.Edge(e).target);
    }
    graph::NeighborSpan all = csr.OutNeighbors(v);
    EXPECT_EQ(std::multiset<VertexId>(all.begin(), all.end()), live_targets)
        << "vertex " << v;
  }
}

// The snapshot holds only what traversal reads: 4 B per neighbor on each
// side, four 32-bit offset arrays of (rows + 1) entries per segment, and
// one 8 B type-directory entry per (vertex, side, incident edge type).
TEST(CsrTest, FootprintIsEightBytesPerEdge) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 300, .num_files = 900, .num_tasks = 200});
  for (graph::EdgeId e = 0; e < g.NumEdges(); e += 5) {
    ASSERT_TRUE(g.RemoveEdge(e).ok());
  }
  CsrGraph csr = CsrGraph::Build(g);
  ASSERT_GT(csr.num_segments(), 1u);
  size_t expected = 8 * g.NumLiveEdges();
  for (size_t i = 0; i < csr.num_segments(); ++i) {
    expected += 4 * (csr.segment(i)->num_vertices + 1) * 4;
  }
  size_t dir_entries = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::set<graph::EdgeTypeId> out_types;
    std::set<graph::EdgeTypeId> in_types;
    for (graph::EdgeId e : g.OutEdges(v)) {
      if (g.IsEdgeLive(e)) out_types.insert(g.Edge(e).type);
    }
    for (graph::EdgeId e : g.InEdges(v)) {
      if (g.IsEdgeLive(e)) in_types.insert(g.Edge(e).type);
    }
    dir_entries += out_types.size() + in_types.size();
  }
  expected += 8 * dir_entries;
  size_t bytes = 0;
  for (size_t i = 0; i < csr.num_segments(); ++i) {
    bytes += csr.segment(i)->ByteSize();
  }
  EXPECT_EQ(bytes, expected);
}

/// CSR traversals must agree with the adjacency-list implementations.
class CsrEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrEquivalenceTest, ReachabilityMatches) {
  PropertyGraph g =
      datasets::MakeSocialGraph({.num_vertices = 200,
                                 .seed = static_cast<uint64_t>(GetParam())});
  CsrGraph csr = CsrGraph::Build(g);
  graph::TraversalOptions fwd;
  fwd.max_hops = 3;
  graph::TraversalOptions bwd = fwd;
  bwd.direction = graph::Direction::kBackward;
  for (VertexId v = 0; v < g.NumVertices(); v += 7) {
    EXPECT_EQ(CsrCountReachable(csr, v, 3, false),
              graph::CountReachable(g, v, fwd));
    EXPECT_EQ(CsrCountReachable(csr, v, 3, true),
              graph::CountReachable(g, v, bwd));
  }
}

TEST_P(CsrEquivalenceTest, LabelPropagationMatches) {
  PropertyGraph g =
      datasets::MakeSocialGraph({.num_vertices = 150,
                                 .seed = static_cast<uint64_t>(GetParam())});
  CsrGraph csr = CsrGraph::Build(g);
  auto adjacency = graph::LabelPropagation(g, 10);
  auto csr_labels = graph::CsrLabelPropagation(csr, 10);
  EXPECT_EQ(adjacency.label, csr_labels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrEquivalenceTest, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Same-vertex-type connector rewrite
// ---------------------------------------------------------------------------

core::ViewDefinition SameTypeView(const std::string& type, int k) {
  core::ViewDefinition def;
  def.kind = core::ViewKind::kSameVertexTypeConnector;
  def.k = k;
  def.source_type = type;
  def.target_type = type;
  return def;
}

TEST(SameTypeRewriteTest, HomogeneousReachabilityQueryRewrites) {
  // Small and sparse: variable-length contraction enumerates *all*
  // simple paths up to 4 hops, which explodes on dense reciprocal
  // graphs (that cost is the paper's argument for the cost model).
  PropertyGraph g = datasets::MakeSocialGraph(
      {.num_vertices = 60, .edges_per_vertex = 2, .reciprocal_prob = 0.2});
  core::ViewDefinition def = SameTypeView("Person", 4);
  auto q = query::ParseQueryText(
      "MATCH (a:Person)-[r*1..4]->(b:Person) RETURN a, b");
  ASSERT_TRUE(q.ok());
  auto rewritten = core::RewriteQueryWithView(*q, def, g.schema());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  const query::MatchQuery* match = rewritten->InnermostMatch();
  ASSERT_EQ(match->edges.size(), 1u);
  EXPECT_FALSE(match->edges[0].variable_length);  // one connector hop
  EXPECT_EQ(match->edges[0].type, "CONN_PERSON_TO_PERSON");

  // Result equivalence against the materialized view.
  auto view = core::Materialize(g, def);
  ASSERT_TRUE(view.ok());
  query::QueryExecutor raw_exec(&g);
  query::QueryExecutor view_exec(&view->graph);
  auto raw = raw_exec.Execute(*q);
  auto over_view = view_exec.Execute(*rewritten);
  ASSERT_TRUE(raw.ok() && over_view.ok());
  // Map view rows to base ids and compare as sets.
  std::set<std::pair<int64_t, int64_t>> raw_pairs;
  for (const auto& row : raw->rows()) {
    raw_pairs.emplace(row[0].as_int(), row[1].as_int());
  }
  std::set<std::pair<int64_t, int64_t>> view_pairs;
  for (const auto& row : over_view->rows()) {
    auto a = static_cast<VertexId>(row[0].as_int());
    auto b = static_cast<VertexId>(row[1].as_int());
    view_pairs.emplace(view->graph.VertexProperty(a, "orig_id").as_int(),
                       view->graph.VertexProperty(b, "orig_id").as_int());
  }
  EXPECT_EQ(raw_pairs, view_pairs);
  EXPECT_FALSE(raw_pairs.empty());
}

TEST(SameTypeRewriteTest, MisalignedWindowsRejected) {
  PropertyGraph g = datasets::MakeSocialGraph({.num_vertices = 50});
  // View merges 1..4; on a self-loop-type schema every length is
  // feasible, so narrower or wider query windows are inexact.
  core::ViewDefinition def = SameTypeView("Person", 4);
  for (const char* text :
       {"MATCH (a:Person)-[r*2..4]->(b:Person) RETURN a, b",    // lr too high
        "MATCH (a:Person)-[r*1..3]->(b:Person) RETURN a, b",    // ur < view k
        "MATCH (a:Person)-[r*1..6]->(b:Person) RETURN a, b"}) { // ur > view k
    auto q = query::ParseQueryText(text);
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE(core::RewriteQueryWithView(*q, def, g.schema()).ok())
        << text;
  }
}

TEST(SameTypeRewriteTest, ParityGapsPermitWiderWindows) {
  // Bipartite lineage schema: job-to-job paths only at even lengths, so
  // a query window of 1..4 aligns exactly with a view bound of 4 even
  // though their ends differ from the feasible lengths {2, 4}.
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .include_auxiliary = false});
  core::ViewDefinition def = SameTypeView("Job", 4);
  auto q = query::ParseQueryText(datasets::AncestorsQueryText("Job", 4));
  ASSERT_TRUE(q.ok());
  auto rewritten = core::RewriteQueryWithView(*q, def, g.schema());
  EXPECT_TRUE(rewritten.ok()) << rewritten.status();
}

// ---------------------------------------------------------------------------
// Snapshot cache: one CSR snapshot per (handle, generation), lazy build,
// implicit invalidation via the catalog generation.
// ---------------------------------------------------------------------------

core::ViewDefinition JobConnector(int k) {
  core::ViewDefinition def;
  def.kind = core::ViewKind::kKHopConnector;
  def.k = k;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

TEST(SnapshotCacheTest, BaseSnapshotCachedPerGeneration) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();

  auto first = catalog.BaseSnapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(catalog.snapshot_builds(), 1u);
  auto second = catalog.BaseSnapshot();
  EXPECT_EQ(second.get(), first.get());  // same generation -> same snapshot
  EXPECT_EQ(catalog.snapshot_builds(), 1u);
  EXPECT_EQ(catalog.snapshot_hits(), 1u);
  EXPECT_EQ(first->NumEdges(), engine.base_graph().NumLiveEdges());
}

TEST(SnapshotCacheTest, MutationsInvalidateAndRebuildLazily) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();

  auto before = catalog.BaseSnapshot();
  const size_t builds_before = catalog.snapshot_builds();
  const size_t edges_before = before->NumEdges();

  // ApplyDelta bumps the generation; the old snapshot must not be
  // served again, and the reader that still holds it keeps a valid,
  // self-contained copy of the pre-delta topology.
  graph::GraphDelta delta;
  delta.AddEdge(0, static_cast<graph::VertexId>(30), "WRITES_TO", {});
  ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
  EXPECT_EQ(catalog.snapshot_builds(), builds_before);  // lazy: no rebuild yet
  auto after = catalog.BaseSnapshot();
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(catalog.snapshot_builds(), builds_before + 1);
  EXPECT_EQ(after->NumEdges(), edges_before + 1);
  EXPECT_EQ(before->NumEdges(), edges_before);  // old snapshot untouched

  // MutateBaseGraph invalidates through the same generation mechanism.
  auto held = catalog.BaseSnapshot();
  ASSERT_TRUE(engine
                  .MutateBaseGraph([](PropertyGraph* g) {
                    return g->AddEdge(1, 31, "WRITES_TO").status();
                  })
                  .ok());
  EXPECT_NE(catalog.BaseSnapshot().get(), held.get());
}

TEST(SnapshotCacheTest, PerViewSnapshotsKeyedByHandle) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::ViewCatalog catalog(&base);
  auto h2 = catalog.Add(JobConnector(2));
  ASSERT_TRUE(h2.ok());
  auto h4 = catalog.Add(JobConnector(4));
  ASSERT_TRUE(h4.ok());

  auto snap2 = catalog.SnapshotFor(*h2);
  auto snap4 = catalog.SnapshotFor(*h4);
  ASSERT_NE(snap2, nullptr);
  ASSERT_NE(snap4, nullptr);
  EXPECT_NE(snap2.get(), snap4.get());
  EXPECT_EQ(snap2->NumEdges(),
            catalog.Get(*h2)->view.graph.NumLiveEdges());
  // Cached per handle: repeated requests hit.
  EXPECT_EQ(catalog.SnapshotFor(*h2).get(), snap2.get());
  // Unknown handles resolve to null, and dropped views stop resolving.
  EXPECT_EQ(catalog.SnapshotFor(9999), nullptr);
  ASSERT_TRUE(catalog.Remove(catalog.Get(*h2)->name()).ok());
  EXPECT_EQ(catalog.SnapshotFor(*h2), nullptr);
}

TEST(SnapshotCacheTest, EngineMatchRunsOverSnapshots) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const std::string text =
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
      "RETURN a, b";
  auto first = engine.Execute(text);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GE(engine.catalog().snapshot_builds(), 1u);
  auto second = engine.Execute(text);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(engine.catalog().snapshot_hits(), 1u);
  EXPECT_EQ(first->table.num_rows(), second->table.num_rows());
}

// ---------------------------------------------------------------------------
// Snapshot patching: the first request after ApplyDelta produces the next
// snapshot from the previous one in O(|delta|) (telemetry splits
// snapshot_builds into snapshot_patches + snapshot_full_builds), with a
// full build only after a change no removal list describes.
// ---------------------------------------------------------------------------

TEST(SnapshotPatchTest, ApplyDeltaPatchesBaseSnapshotForward) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();

  auto warm = catalog.BaseSnapshot();
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);  // first build is full
  EXPECT_EQ(catalog.snapshot_patches(), 0u);

  // Mixed batch: one insert plus one removal.
  graph::GraphDelta delta;
  delta.AddEdge(0, static_cast<VertexId>(30), "WRITES_TO", {});
  delta.RemoveEdge(engine.base_graph().OutEdges(0).front());
  ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());

  auto patched = catalog.BaseSnapshot();
  ASSERT_NE(patched, nullptr);
  EXPECT_NE(patched.get(), warm.get());
  EXPECT_EQ(catalog.snapshot_patches(), 1u);  // the patch path ran
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);
  // The patched snapshot is indistinguishable from a from-scratch build.
  testutil::ExpectCsrEqual(*patched, CsrGraph::Build(engine.base_graph()),
                           engine.base_graph(), "patched base");

  // A second delta patches again — the trail resets after each publish.
  graph::GraphDelta more;
  more.AddEdge(1, static_cast<VertexId>(31), "WRITES_TO", {});
  ASSERT_TRUE(engine.ApplyDelta(std::move(more)).ok());
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), 2u);
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);
}

TEST(SnapshotPatchTest, ViewSnapshotsPatchThroughMaintainedDeltas) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector(2)).ok());
  const core::ViewCatalog& catalog = engine.catalog();
  const core::CatalogEntry* entry =
      catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  const core::ViewHandle handle = entry->handle;

  auto warm = catalog.SnapshotFor(handle);
  ASSERT_NE(warm, nullptr);
  const size_t full_before = catalog.snapshot_full_builds();

  // A removal that maintains the view incrementally: the maintainer's
  // removed-view-edge sink feeds the view's snapshot store.
  graph::GraphDelta delta;
  delta.RemoveEdge(0);
  delta.AddEdge(0, static_cast<VertexId>(30), "WRITES_TO", {});
  auto report = engine.ApplyDelta(std::move(delta));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->views_incremental, 1u)
      << "cost model chose rematerialization; test premise broken";

  auto patched = catalog.SnapshotFor(handle);
  ASSERT_NE(patched, nullptr);
  EXPECT_NE(patched.get(), warm.get());
  EXPECT_GE(catalog.snapshot_patches(), 1u);
  EXPECT_EQ(catalog.snapshot_full_builds(), full_before);
  testutil::ExpectCsrEqual(*patched, CsrGraph::Build(entry->view.graph),
                           entry->view.graph, "patched view");
}

TEST(SnapshotPatchTest, RegisteringAViewDoesNotInvalidateTheBaseSnapshot) {
  // The generation moves (plan caches must invalidate) but the base
  // graph itself did not: the old snapshot is re-stamped, not rebuilt.
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();
  auto before = catalog.BaseSnapshot();
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector(2)).ok());
  auto after = catalog.BaseSnapshot();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(catalog.snapshot_builds(), 1u);
}

TEST(SnapshotPatchTest, OutOfBandMutationFallsBackToFullRebuild) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  const size_t patches_before = catalog.snapshot_patches();

  // MutateBaseGraph comes with no removal list.
  ASSERT_TRUE(engine
                  .MutateBaseGraph([](PropertyGraph* g) {
                    return g->AddEdge(0, 30, "WRITES_TO").status();
                  })
                  .ok());
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), patches_before);
  EXPECT_EQ(catalog.snapshot_full_builds(), 2u);
}

TEST(SnapshotPatchTest, UnreadRemovalBatchesPatchInOneStep) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 40, .num_files = 80, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const core::ViewCatalog& catalog = engine.catalog();
  auto warm = catalog.BaseSnapshot();
  ASSERT_NE(warm, nullptr);

  // Seventy removal batches nobody reads in between: the store keeps a
  // set of dirty rows, not a history, so there is no cap to outgrow and
  // the next request is one patch of their union.
  for (int i = 0; i < 70; ++i) {
    graph::GraphDelta delta;
    delta.RemoveEdge(static_cast<graph::EdgeId>(i));
    ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok()) << i;
  }
  auto patched = catalog.BaseSnapshot();
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), 1u);
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);
  testutil::ExpectSegmentsIdentical(
      *patched, CsrGraph::Build(engine.base_graph()), "after 70 batches");
}

TEST(SnapshotPatchTest, ViewGrownByRefreshPatchesToFreshBuild) {
  // RefreshViews' catch-up appends to a view without a removal list;
  // the view's store must see the growth, or the executor's staleness
  // tripwire fails the next view-served query with Internal.
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector(2)).ok());
  const core::ViewCatalog& catalog = engine.catalog();
  const core::CatalogEntry* entry = catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto warm = engine.Execute(text);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->used_view);
  ASSERT_NE(catalog.SnapshotFor(entry->handle), nullptr);
  const size_t view_edges = entry->view.graph.NumEdges();

  // Out-of-band appends the maintainer only learns about at refresh:
  // a Job that writes a File another Job reads adds a 2-hop path.
  const graph::PropertyGraph& g = engine.base_graph();
  const graph::VertexTypeId job_t = g.schema().FindVertexType("Job");
  const graph::VertexTypeId file_t = g.schema().FindVertexType("File");
  const graph::EdgeTypeId reads_t = g.schema().FindEdgeType("IS_READ_BY");
  VertexId read_file = graph::kInvalidId;
  for (VertexId f : g.VerticesOfType(file_t)) {
    for (graph::EdgeId e : g.OutEdges(f)) {
      if (g.Edge(e).type == reads_t) read_file = f;
    }
    if (read_file != graph::kInvalidId) break;
  }
  ASSERT_NE(read_file, graph::kInvalidId);
  const std::vector<VertexId> jobs = g.VerticesOfType(job_t);
  ASSERT_TRUE(engine
                  .MutateBaseGraph([&](PropertyGraph* mut) -> Status {
                    for (size_t i = 0; i < 5; ++i) {
                      auto added =
                          mut->AddEdge(jobs[i], read_file, "WRITES_TO");
                      if (!added.ok()) return added.status();
                    }
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(engine.RefreshViews().ok());
  entry = catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  ASSERT_GT(entry->view.graph.NumEdges(), view_edges)
      << "refresh did not grow the view; test premise broken";

  const size_t patches_before = catalog.snapshot_patches();
  const size_t full_before = catalog.snapshot_full_builds();
  auto view = catalog.SnapshotFor(entry->handle);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), patches_before + 1);
  EXPECT_EQ(catalog.snapshot_full_builds(), full_before);
  testutil::ExpectSegmentsIdentical(*view, CsrGraph::Build(entry->view.graph),
                                    "grown view");
  auto after = engine.Execute(text);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->used_view);
}

TEST(SnapshotPatchTest, ShardedOneSegmentGraphCountsADeltaAsAPatch) {
  // A graph smaller than one segment: the patch shares nothing, but it
  // block-copies the segment's clean rows, so it is a patch.
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  ASSERT_LE(base.NumVertices(), graph::kCsrSegmentVertices);
  core::EngineOptions options;
  options.shards = 2;
  core::Engine engine(std::move(base), options);
  const core::ViewCatalog& catalog = engine.catalog();
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);

  graph::GraphDelta delta;
  delta.AddEdge(0, static_cast<VertexId>(30), "WRITES_TO", {});
  ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
  auto patched = catalog.BaseSnapshot();
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), 1u);
  EXPECT_EQ(catalog.snapshot_full_builds(), 1u);
  testutil::ExpectSegmentsIdentical(
      *patched, CsrGraph::Build(engine.base_graph()), "sharded patch");
}

TEST(SnapshotPatchTest, DroppingAViewNeverLowersPatchCounters) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 30, .num_files = 60, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector(2)).ok());
  const core::ViewCatalog& catalog = engine.catalog();
  const core::CatalogEntry* entry = catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(catalog.SnapshotFor(entry->handle), nullptr);
  graph::GraphDelta delta;
  delta.RemoveEdge(0);
  delta.AddEdge(0, static_cast<VertexId>(30), "WRITES_TO", {});
  ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
  ASSERT_NE(catalog.SnapshotFor(entry->handle), nullptr);

  const uint64_t copied = catalog.patch_segments_copied();
  const uint64_t shared = catalog.patch_segments_shared();
  const uint64_t bytes = catalog.patch_bytes_copied();
  ASSERT_GT(copied, 0u);
  ASSERT_GT(bytes, 0u);
  ASSERT_TRUE(engine.RemoveView(JobConnector(2).Name()).ok());
  EXPECT_EQ(catalog.patch_segments_copied(), copied);
  EXPECT_EQ(catalog.patch_segments_shared(), shared);
  EXPECT_EQ(catalog.patch_bytes_copied(), bytes);
}

// ---------------------------------------------------------------------------
// Immutable-segment sharing: the segment store copies only the segments
// containing dirty vertices; every clean segment of the new snapshot is
// the *same object* (refcount-shared) as the previous snapshot's.
// ---------------------------------------------------------------------------

/// First Job with outgoing edges, plus any File (layout-independent —
/// the generator's id assignment is not part of its contract).
std::pair<VertexId, VertexId> PickJobAndFile(const PropertyGraph& g) {
  const graph::VertexTypeId job_t = g.schema().FindVertexType("Job");
  const graph::VertexTypeId file_t = g.schema().FindVertexType("File");
  VertexId job = graph::kInvalidId;
  for (VertexId j : g.VerticesOfType(job_t)) {
    if (g.OutDegree(j) > 0) {
      job = j;
      break;
    }
  }
  return {job, g.VerticesOfType(file_t).front()};
}

TEST(SegmentSharingTest, CleanSegmentsSharedByPointerAcrossGenerations) {
  // > 2 segments so there is something to share.
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 800, .num_files = 1500, .num_tasks = 600});
  SegmentStore store(&g, 1);
  std::shared_ptr<const CsrGraph> prev_snap = store.Snapshot();
  const CsrGraph& prev = *prev_snap;
  ASSERT_GE(prev.num_segments(), 3u);

  auto [job, file] = PickJobAndFile(g);
  ASSERT_NE(job, graph::kInvalidId);
  const graph::EdgeId victim = g.OutEdges(job)[0];
  // The exact dirty-segment set: both delta endpoints plus both ends of
  // the removed edge.
  std::set<size_t> dirty{graph::CsrSegmentOf(job), graph::CsrSegmentOf(file),
                         graph::CsrSegmentOf(g.Edge(victim).source),
                         graph::CsrSegmentOf(g.Edge(victim).target)};
  graph::GraphDelta delta;
  delta.AddEdge(job, file, "WRITES_TO", {});
  delta.RemoveEdge(victim);
  auto applied = graph::ApplyDeltaToGraph(&g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status();

  store.NoteDelta(delta.edge_removals);
  SegmentStore::Outcome outcome;
  graph::CsrPatchStats stats;
  std::shared_ptr<const CsrGraph> next_snap = store.Snapshot(&outcome, &stats);
  const CsrGraph& next = *next_snap;
  EXPECT_EQ(outcome, SegmentStore::Outcome::kPatch);
  EXPECT_EQ(stats.total_segments, prev.num_segments());
  EXPECT_EQ(stats.segments_copied, dirty.size());
  EXPECT_EQ(stats.segments_shared, prev.num_segments() - dirty.size());
  EXPECT_GT(stats.bytes_copied, 0u);
  // Dirty segments rewritten into fresh objects; clean segments are the
  // previous generation's objects, by identity.
  for (size_t s = 0; s < prev.num_segments(); ++s) {
    if (dirty.count(s) != 0) {
      EXPECT_NE(next.segment(s).get(), prev.segment(s).get())
          << "segment " << s;
    } else {
      EXPECT_EQ(next.segment(s).get(), prev.segment(s).get())
          << "segment " << s;
    }
  }
  testutil::ExpectCsrEqual(next, CsrGraph::Build(g), g, "patched");
}

TEST(SegmentSharingTest, ChurnKeepsSharingAndStaysExact) {
  // Generation chain under churn: patch forward repeatedly, hold every
  // generation alive (exercising shared-segment refcounts), and verify
  // each against a fresh build. The ASan/UBSan CI job runs this suite,
  // covering use-after-free and aliasing bugs in the sharing path.
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 800, .num_files = 1500, .num_tasks = 600});
  auto [job, file] = PickJobAndFile(g);
  ASSERT_NE(job, graph::kInvalidId);
  std::vector<std::shared_ptr<const CsrGraph>> generations;
  {
    // The store holds segments of the latest version only; destroying
    // it first leaves the generations as their segments' only owners.
    SegmentStore store(&g, 1);
    generations.push_back(store.Snapshot());
    size_t shared_total = 0;
    for (int step = 0; step < 8; ++step) {
      graph::GraphDelta delta;
      delta.AddEdge(job, file, "WRITES_TO", {});
      delta.RemoveEdge(g.OutEdges(job)[0]);
      auto applied = graph::ApplyDeltaToGraph(&g, delta);
      ASSERT_TRUE(applied.ok()) << applied.status();
      store.NoteDelta(delta.edge_removals);
      SegmentStore::Outcome outcome;
      graph::CsrPatchStats stats;
      generations.push_back(store.Snapshot(&outcome, &stats));
      ASSERT_EQ(outcome, SegmentStore::Outcome::kPatch) << "step " << step;
      shared_total += stats.segments_shared;
      testutil::ExpectCsrEqual(*generations.back(), CsrGraph::Build(g), g,
                               "churn step " + std::to_string(step));
    }
    EXPECT_GT(shared_total, 0u);
  }
  // Dropping old generations must leave the survivors intact (shared
  // segments outlive the generations that created them).
  std::shared_ptr<const CsrGraph> last = generations.back();
  generations.clear();
  testutil::ExpectCsrEqual(*last, CsrGraph::Build(g), g, "after release");
}

// ---------------------------------------------------------------------------
// Row-level patching: a uniform delta dirties every segment, so nothing
// is shared, yet only the dirty vertices' rows are re-derived — every
// other row is block-copied from the previous version — and each
// patched segment is byte-identical to a fresh Build's.
// ---------------------------------------------------------------------------

/// Uniform churn over a multi-segment provenance graph. Each batch
/// inserts edges of five types between random endpoints of every vertex
/// type (enough that every segment is dirty), gives the hub Job edges
/// of four types (WRITES_TO and SPAWNS out, IS_READ_BY and SUBMITS in),
/// and removes random live edges. The newest Job gets an edge too, so a
/// tail segment holding only appended Jobs is dirty as well.
class ProvChurn {
 public:
  ProvChurn(const PropertyGraph& g, uint64_t seed) : rng_(seed) {
    auto of_type = [&g](const char* name) {
      return g.VerticesOfType(g.schema().FindVertexType(name));
    };
    jobs_ = of_type("Job");
    files_ = of_type("File");
    tasks_ = of_type("Task");
    machines_ = of_type("Machine");
    users_ = of_type("User");
    hub_ = jobs_.front();
    for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.NumEdges());
         ++e) {
      live_.push_back(e);
    }
  }

  graph::GraphDelta Next() {
    graph::GraphDelta delta;
    for (int i = 0; i < 16; ++i) {
      delta.AddEdge(Pick(jobs_), Pick(files_), "WRITES_TO");
      delta.AddEdge(Pick(files_), Pick(jobs_), "IS_READ_BY");
      delta.AddEdge(Pick(jobs_), Pick(tasks_), "SPAWNS");
      delta.AddEdge(Pick(tasks_), Pick(machines_), "RUNS_ON");
      delta.AddEdge(Pick(users_), Pick(jobs_), "SUBMITS");
    }
    delta.AddEdge(jobs_.back(), Pick(files_), "WRITES_TO");
    delta.AddEdge(hub_, Pick(files_), "WRITES_TO");
    delta.AddEdge(hub_, Pick(tasks_), "SPAWNS");
    delta.AddEdge(Pick(files_), hub_, "IS_READ_BY");
    delta.AddEdge(Pick(users_), hub_, "SUBMITS");
    for (int i = 0; i < 8; ++i) delta.RemoveEdge(TakeLive());
    return delta;
  }

  /// Appends Jobs (each writing one File) so the vertex count crosses
  /// the next segment boundary: the old tail segment grows and a new
  /// segment starts.
  graph::GraphDelta AppendAcrossBoundary(const PropertyGraph& g) {
    graph::GraphDelta delta;
    const size_t n = g.NumVertices();
    const size_t count =
        graph::kCsrSegmentVertices - n % graph::kCsrSegmentVertices + 3;
    for (size_t j = 0; j < count; ++j) {
      delta.AddVertex("Job");
      delta.AddEdge(static_cast<VertexId>(n + j), Pick(files_), "WRITES_TO");
    }
    return delta;
  }

  /// Takes a live edge out of the removable pool.
  graph::EdgeId TakeLive() {
    const size_t at = rng_() % live_.size();
    const graph::EdgeId e = live_[at];
    live_[at] = live_.back();
    live_.pop_back();
    return e;
  }

  /// Records what applying a batch created.
  void Track(const std::vector<VertexId>& new_vertices,
             const std::vector<graph::EdgeId>& new_edges) {
    jobs_.insert(jobs_.end(), new_vertices.begin(), new_vertices.end());
    live_.insert(live_.end(), new_edges.begin(), new_edges.end());
  }

 private:
  VertexId Pick(const std::vector<VertexId>& pool) {
    return pool[rng_() % pool.size()];
  }

  std::mt19937_64 rng_;
  std::vector<VertexId> jobs_, files_, tasks_, machines_, users_;
  std::vector<graph::EdgeId> live_;
  VertexId hub_ = graph::kInvalidId;
};

PropertyGraph ThreeSegmentProvGraph() {
  return datasets::MakeProvenanceGraph({.num_jobs = 500,
                                        .num_files = 900,
                                        .num_tasks = 1200,
                                        .num_machines = 20,
                                        .num_users = 40});
}

TEST(SegmentPatchTest, UniformChurnRederivesOnlyDirtyRowsAtEveryPrefix) {
  PropertyGraph g = ThreeSegmentProvGraph();
  ProvChurn churn(g, 7);
  SegmentStore store(&g, 1);
  std::shared_ptr<const CsrGraph> prev = store.Snapshot();
  ASSERT_GE(prev->num_segments(), 2u);
  auto apply = [&](const graph::GraphDelta& delta) {
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    churn.Track(applied->new_vertices, applied->new_edges);
    store.NoteDelta(delta.edge_removals);
  };
  for (int step = 0; step < 10; ++step) {
    const std::string context = "step " + std::to_string(step);
    // One patch window may span several batches.
    apply(churn.Next());
    if (step == 2) apply(churn.AppendAcrossBoundary(g));
    if (step % 3 == 1) {
      // An edge inserted and removed inside one window never reaches
      // either snapshot.
      graph::GraphDelta removal;
      removal.RemoveEdge(static_cast<graph::EdgeId>(g.NumEdges() - 1));
      apply(removal);
    }
    if (::testing::Test::HasFatalFailure()) return;

    SegmentStore::Outcome outcome;
    graph::CsrPatchStats stats;
    std::shared_ptr<const CsrGraph> next = store.Snapshot(&outcome, &stats);
    ASSERT_EQ(outcome, SegmentStore::Outcome::kPatch) << context;
    ASSERT_EQ(stats.segments_shared, 0u)
        << context << ": churn left a segment clean; test premise broken";
    // The O(dirty vertices) property, by count: every written segment
    // re-derived exactly its dirty and appended rows.
    EXPECT_EQ(stats.vertices_rederived, stats.dirty_vertices) << context;
    // ...and most rows were copied, not re-derived.
    EXPECT_LT(stats.dirty_vertices * 2, g.NumVertices()) << context;
    for (size_t s = 0; s < prev->num_segments(); ++s) {
      EXPECT_NE(next->segment(s).get(), prev->segment(s).get())
          << context << " segment " << s;
    }
    testutil::ExpectSegmentsIdentical(*next, CsrGraph::Build(g), context);
    if (::testing::Test::HasFatalFailure()) return;
    prev = std::move(next);
  }
}

TEST(SegmentPatchTest, EngineBaseAndViewSnapshotsMatchBuildUnderChurn) {
  core::Engine engine(ThreeSegmentProvGraph());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector(2)).ok());
  const core::ViewCatalog& catalog = engine.catalog();
  const core::CatalogEntry* entry = catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  ProvChurn churn(engine.base_graph(), 13);
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  ASSERT_NE(catalog.SnapshotFor(entry->handle), nullptr);
  auto apply = [&](graph::GraphDelta delta) {
    auto report = engine.ApplyDelta(std::move(delta));
    ASSERT_TRUE(report.ok()) << report.status();
    churn.Track(report->new_vertices, report->new_edges);
  };
  for (int step = 0; step < 8; ++step) {
    const std::string context = "step " + std::to_string(step);
    apply(churn.Next());
    if (step == 3) apply(churn.AppendAcrossBoundary(engine.base_graph()));
    if (step % 3 == 1) {
      graph::GraphDelta removal;
      removal.RemoveEdge(
          static_cast<graph::EdgeId>(engine.base_graph().NumEdges() - 1));
      apply(std::move(removal));
    }
    if (::testing::Test::HasFatalFailure()) return;
    const size_t patches_before = catalog.snapshot_patches();
    auto base = catalog.BaseSnapshot();
    ASSERT_NE(base, nullptr) << context;
    EXPECT_EQ(catalog.snapshot_patches(), patches_before + 1)
        << context << ": base snapshot did not take the patch path";
    testutil::ExpectSegmentsIdentical(
        *base, CsrGraph::Build(engine.base_graph()), "base " + context);
    // The view may have been rematerialized instead of maintained (a
    // full rebuild); either way its snapshot must equal a fresh build.
    entry = catalog.Find(JobConnector(2).Name());
    ASSERT_NE(entry, nullptr);
    auto view = catalog.SnapshotFor(entry->handle);
    ASSERT_NE(view, nullptr) << context;
    testutil::ExpectSegmentsIdentical(
        *view, CsrGraph::Build(entry->view.graph), "view " + context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, RepeatedQueriesHitTheCache) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 50, .num_files = 100, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  core::ViewDefinition connector;
  connector.kind = core::ViewKind::kKHopConnector;
  connector.k = 2;
  connector.source_type = "Job";
  connector.target_type = "Job";
  ASSERT_TRUE(engine.AddMaterializedView(connector).ok());

  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto first = engine.Execute(text);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  auto second = engine.Execute(text);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  // Same plan, same results.
  EXPECT_EQ(second->view_name, first->view_name);
  EXPECT_EQ(second->table.num_rows(), first->table.num_rows());
}

TEST(PlanCacheTest, CatalogChangesInvalidate) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 50, .num_files = 100, .include_auxiliary = false});
  core::Engine engine(std::move(base));
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto before = engine.Execute(text);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->used_view);

  core::ViewDefinition connector;
  connector.kind = core::ViewKind::kKHopConnector;
  connector.k = 2;
  connector.source_type = "Job";
  connector.target_type = "Job";
  ASSERT_TRUE(engine.AddMaterializedView(connector).ok());
  // The cached raw plan must not survive the catalog change.
  auto after = engine.Execute(text);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
}

TEST(PlanCacheTest, PlanEpochMovesOnlyOnPlannerVisibleChanges) {
  PropertyGraph base = datasets::MakeProvenanceGraph(
      {.num_jobs = 50, .num_files = 100, .include_auxiliary = false});
  core::ViewCatalog catalog(&base);
  // Base statistics are built with the catalog, not per plan.
  EXPECT_EQ(catalog.base_stats().num_vertices(), base.NumLiveVertices());
  EXPECT_EQ(catalog.base_stats().num_edges(), base.NumLiveEdges());

  uint64_t epoch = catalog.plan_epoch();
  auto moved = [&] {
    const bool result = catalog.plan_epoch() > epoch;
    epoch = catalog.plan_epoch();
    return result;
  };
  ASSERT_TRUE(catalog.Add(JobConnector(2)).ok());
  EXPECT_TRUE(moved());

  // A small base delta moves the generation (snapshots) but not the
  // plan epoch: every statistic stays within its drift threshold.
  graph::GraphDelta small;
  small.AddEdge(0, static_cast<VertexId>(50), "WRITES_TO", {});
  const uint64_t generation = catalog.generation();
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&base, small).ok());
  ASSERT_TRUE(catalog.ApplyBaseDelta(small).ok());
  EXPECT_GT(catalog.generation(), generation);
  EXPECT_FALSE(moved());
  catalog.NoteBaseGraphChanged();
  EXPECT_FALSE(moved());

  // Past the threshold the base statistics are recomputed, and that is
  // planner-visible.
  graph::GraphDelta growth;
  for (int i = 0; i < 40; ++i) growth.AddVertex("File");
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&base, growth).ok());
  ASSERT_TRUE(catalog.ApplyBaseDelta(growth).ok());
  EXPECT_TRUE(moved());
  EXPECT_EQ(catalog.base_stats().num_vertices(), base.NumLiveVertices());
  // ... as is an out-of-band change of the same size.
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(base.AddVertex("File", {}).ok());
  catalog.NoteBaseGraphChanged();
  EXPECT_TRUE(moved());
  EXPECT_EQ(catalog.base_stats().num_vertices(), base.NumLiveVertices());

  ASSERT_TRUE(catalog.RefreshAll().ok());
  EXPECT_TRUE(moved());
  const core::CatalogEntry* entry = catalog.Find(JobConnector(2).Name());
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(
      catalog.Quarantine(entry->handle, Status::Internal("test")).ok());
  EXPECT_TRUE(moved());
  // Reclaiming a quarantined entry as a build placeholder is invisible
  // until the build publishes.
  auto handle = catalog.BeginBuild(JobConnector(2));
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(moved());
  auto built = core::Materialize(base, JobConnector(2));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(catalog.Publish(*handle, std::move(*built)).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(catalog.Remove(JobConnector(2).Name()).ok());
  EXPECT_TRUE(moved());
}

}  // namespace
}  // namespace kaskade
