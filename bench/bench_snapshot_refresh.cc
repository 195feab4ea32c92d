/// \file bench_snapshot_refresh.cc
/// \brief Mutation-to-first-query latency: incremental CSR snapshot
/// patching vs full rebuild.
///
/// Logical view maintenance is O(|delta|); this bench measures the
/// *execution-layer* half of the same story. After every `ApplyDelta`
/// the catalog's topology snapshots are stale; the first query then pays
/// snapshot production. The catalog's segment store patches the previous
/// snapshot: O(dirty vertices) plus a block copy of the dirty segments'
/// clean rows. The baseline is a full O(|V| + |E|) `CsrGraph::Build` of
/// the same post-delta graph. We sweep delta sizes — a single edge,
/// 0.1%, 1%, and 10% of |E| — over the social bench graph at 4x the
/// usual scale, measuring per-mutation snapshot production and
/// end-to-end mutation-to-first-query latency, and record the catalog's
/// `snapshot_patches` / `snapshot_full_builds` counters so the JSON
/// proves which path produced each number (every row, 10% included,
/// patches: there is no cap on what a patch may cover).
///
/// `--json[=path]` additionally writes BENCH_snapshot_refresh.json.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"

namespace {

using kaskade::bench::JsonReport;
using kaskade::bench::OrDie;
using kaskade::bench::PrintHeader;
using kaskade::bench::TimeSeconds;
using kaskade::core::Engine;
using kaskade::core::EngineOptions;
using kaskade::graph::EdgeId;
using kaskade::graph::GraphDelta;
using kaskade::graph::PropertyGraph;
using kaskade::graph::VertexId;

/// Social graph scaled for this bench: ~60k vertices at average degree
/// ~6 (the Zipf fan-out multiplies the nominal edges_per_vertex). Large
/// enough that a full snapshot rebuild visibly dwarfs an O(|delta|)
/// patch, sparse enough that the delta sizes span 0-50% dirty vertices
/// (the 10% delta's ~44k endpoints dirty about half of the 60k), and
/// still quick enough for the CI smoke job.
PropertyGraph RefreshBenchGraph() {
  kaskade::datasets::SocialOptions options;
  options.num_vertices = 60000;
  options.edges_per_vertex = 1;
  return kaskade::datasets::MakeSocialGraph(options);
}

/// A query with a small result set, so mutation-to-first-query latency
/// is dominated by snapshot production + matching, not by table
/// materialization.
const char* kFirstQuery =
    "MATCH (a:Person)-[:FOLLOWS]->(b:Person) "
    "WHERE a.handle = 'person_4242' RETURN a, b";

/// `removals` random removals from `live` (which drops them) plus
/// `inserts` FOLLOWS edges between random ids below `span`.
GraphDelta RandomDelta(std::mt19937_64& rng, std::vector<EdgeId>& live,
                       size_t removals, size_t inserts, size_t span) {
  GraphDelta delta;
  for (size_t i = 0; i < removals && !live.empty(); ++i) {
    size_t slot = rng() % live.size();
    delta.RemoveEdge(live[slot]);
    live[slot] = live.back();
    live.pop_back();
  }
  for (size_t i = 0; i < inserts; ++i) {
    VertexId src = static_cast<VertexId>(rng() % span);
    VertexId dst = static_cast<VertexId>(rng() % span);
    if (src == dst) dst = (dst + 1) % span;
    delta.AddEdge(src, dst, "FOLLOWS", {});
  }
  return delta;
}

/// Every edge id of `graph`, as the initial removable set.
std::vector<EdgeId> AllEdges(const PropertyGraph& graph) {
  std::vector<EdgeId> live;
  live.reserve(graph.NumEdges());
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) live.push_back(e);
  return live;
}

/// Timing of one snapshot path over a run: min over iterations (noise
/// floor), mean, and mean mutation-to-first-query latency.
struct PathTiming {
  double snapshot_seconds = 0;
  double snapshot_seconds_mean = 0;
  double mutation_to_first_query = 0;  // mean ApplyDelta + snapshot + query

  void Add(int it, double snapshot, double apply_and_query) {
    snapshot_seconds =
        it == 0 ? snapshot : std::min(snapshot_seconds, snapshot);
    snapshot_seconds_mean += snapshot;
    mutation_to_first_query += apply_and_query + snapshot;
  }
  void Finish(int iterations) {
    snapshot_seconds_mean /= iterations;
    mutation_to_first_query /= iterations;
  }
};

struct ModeResult {
  PathTiming patched;  // the catalog's first snapshot after the mutation
  PathTiming rebuild;  // CsrGraph::Build of the same post-delta graph
  size_t patches = 0;  // catalog telemetry over the run
  size_t full_builds = 0;
};

/// Runs `iterations` mutate-then-query rounds of `delta_edges` edge
/// mutations (half removals, half inserts) against a fresh engine,
/// timing each round's patched snapshot and a full rebuild of the same
/// graph. Exits non-zero on any warm/mutate/query failure (never lets CI
/// record an all-zero "trajectory" as a green run).
ModeResult RunMode(const PropertyGraph& graph, size_t delta_edges,
                   int iterations) {
  Engine engine{PropertyGraph(graph)};

  std::mt19937_64 rng(1234);
  std::vector<EdgeId> live = AllEdges(graph);

  // Warm: steady-state serving has a current snapshot before the
  // mutation arrives.
  OrDie(engine.Execute(kFirstQuery).status(), "warm query");
  const size_t patches_before = engine.catalog().snapshot_patches();
  const size_t full_before = engine.catalog().snapshot_full_builds();

  ModeResult result;
  for (int it = 0; it < iterations; ++it) {
    GraphDelta delta = RandomDelta(rng, live, delta_edges / 2,
                                   delta_edges - delta_edges / 2,
                                   graph.NumVertices());

    const double apply_seconds = TimeSeconds([&] {
      auto report = OrDie(engine.ApplyDelta(std::move(delta)), "ApplyDelta");
      for (EdgeId e : report.new_edges) live.push_back(e);
    });
    // First snapshot acquisition after the mutation: the patch cost
    // under measurement.
    const double patch_seconds =
        TimeSeconds([&] { (void)engine.catalog().BaseSnapshot(); });
    const double query_seconds = TimeSeconds([&] {
      OrDie(engine.Execute(kFirstQuery).status(), "first query");
    });
    // The baseline, after the query so it cannot disturb it.
    const double rebuild_seconds = TimeSeconds([&] {
      (void)kaskade::graph::CsrGraph::Build(engine.base_graph());
    });
    result.patched.Add(it, patch_seconds, apply_seconds + query_seconds);
    result.rebuild.Add(it, rebuild_seconds, apply_seconds + query_seconds);
  }
  result.patched.Finish(iterations);
  result.rebuild.Finish(iterations);
  result.patches = engine.catalog().snapshot_patches() - patches_before;
  result.full_builds = engine.catalog().snapshot_full_builds() - full_before;
  return result;
}

struct SharingResult {
  double bytes_per_patch = 0;       // mean CSR bytes copied per patch
  double segs_copied_per_patch = 0;
  double segs_shared_per_patch = 0;
  size_t patches = 0;
  size_t full_builds = 0;
};

/// Measures the segmented store's copy cost: per-patch bytes actually
/// rebuilt (catalog `patch_bytes_copied`) against the full CSR size.
/// `clustered` draws all delta endpoints from one segment-sized id
/// window — the locality case the segment layout is built for; uniform
/// endpoints on this graph dirty nearly every segment and are reported
/// honestly as such.
SharingResult RunSharingMode(const PropertyGraph& graph, size_t delta_edges,
                             bool clustered, int iterations) {
  Engine engine(PropertyGraph(graph), EngineOptions{});
  std::mt19937_64 rng(99);
  const size_t num_people = graph.NumVertices();
  const size_t window =
      std::min<size_t>(kaskade::graph::kCsrSegmentVertices, num_people);

  // Clustered runs only remove edges they inserted (endpoints stay in
  // the window); uniform runs may remove any pre-existing edge.
  std::vector<EdgeId> live;
  if (!clustered) live = AllEdges(graph);

  OrDie(engine.Execute(kFirstQuery).status(), "warm query");
  const uint64_t bytes_before = engine.catalog().patch_bytes_copied();
  const uint64_t copied_before = engine.catalog().patch_segments_copied();
  const uint64_t shared_before = engine.catalog().patch_segments_shared();
  const size_t patches_before = engine.catalog().snapshot_patches();
  const size_t full_before = engine.catalog().snapshot_full_builds();

  for (int it = 0; it < iterations; ++it) {
    const size_t removals = live.size() > 16 ? delta_edges / 2 : 0;
    GraphDelta delta =
        RandomDelta(rng, live, removals, delta_edges - removals,
                    clustered ? window : num_people);
    auto report = OrDie(engine.ApplyDelta(std::move(delta)), "ApplyDelta");
    for (EdgeId e : report.new_edges) live.push_back(e);
    (void)engine.catalog().BaseSnapshot();
  }

  SharingResult result;
  result.patches = engine.catalog().snapshot_patches() - patches_before;
  result.full_builds = engine.catalog().snapshot_full_builds() - full_before;
  const double n = std::max<double>(1, result.patches + result.full_builds);
  result.bytes_per_patch =
      double(engine.catalog().patch_bytes_copied() - bytes_before) / n;
  result.segs_copied_per_patch =
      double(engine.catalog().patch_segments_copied() - copied_before) / n;
  result.segs_shared_per_patch =
      double(engine.catalog().patch_segments_shared() - shared_before) / n;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport::Init(argc, argv, "snapshot_refresh");

  PropertyGraph graph = RefreshBenchGraph();
  const size_t num_edges = graph.NumLiveEdges();
  std::printf("social graph: %zu vertices, %zu edges\n", graph.NumVertices(),
              num_edges);
  JsonReport::Record("graph", "vertices", double(graph.NumVertices()));
  JsonReport::Record("graph", "edges", double(num_edges));

  struct DeltaSize {
    const char* label;
    size_t edges;
  };
  const DeltaSize kSizes[] = {
      {"delta_1_edge", 1},
      {"delta_0.1pct", num_edges / 1000},
      {"delta_1pct", num_edges / 100},
      {"delta_10pct", num_edges / 10},
  };
  constexpr int kIterations = 6;

  PrintHeader("mutation-to-first-query: patched vs full rebuild");
  std::printf("%-14s %10s %14s %14s %9s %22s\n", "delta", "|delta|",
              "patched_snap_s", "rebuild_snap_s", "speedup",
              "patched run (p/f)");
  for (const DeltaSize& size : kSizes) {
    const ModeResult run = RunMode(graph, size.edges, kIterations);
    const PathTiming& patched = run.patched;
    const PathTiming& full = run.rebuild;
    const double speedup = patched.snapshot_seconds > 0
                               ? full.snapshot_seconds / patched.snapshot_seconds
                               : 0;
    std::printf("%-14s %10zu %14.6f %14.6f %8.1fx %12zu / %zu\n", size.label,
                size.edges, patched.snapshot_seconds, full.snapshot_seconds,
                speedup, run.patches, run.full_builds);
    JsonReport::Record(size.label, "delta_edges", double(size.edges));
    JsonReport::Record(size.label, "patched_snapshot_seconds",
                       patched.snapshot_seconds);
    JsonReport::Record(size.label, "full_rebuild_snapshot_seconds",
                       full.snapshot_seconds);
    JsonReport::Record(size.label, "patched_snapshot_seconds_mean",
                       patched.snapshot_seconds_mean);
    JsonReport::Record(size.label, "full_rebuild_snapshot_seconds_mean",
                       full.snapshot_seconds_mean);
    JsonReport::Record(size.label, "snapshot_speedup", speedup);
    JsonReport::Record(size.label, "patched_mutation_to_first_query_seconds",
                       patched.mutation_to_first_query);
    JsonReport::Record(size.label, "full_mutation_to_first_query_seconds",
                       full.mutation_to_first_query);
    // Path proof: how many of the run's snapshot productions actually
    // took the patch path vs fell back to a full build.
    JsonReport::Record(size.label, "patched_run_snapshot_patches",
                       double(run.patches));
    JsonReport::Record(size.label, "patched_run_snapshot_full_builds",
                       double(run.full_builds));
    if (run.full_builds != 0) {
      std::printf("FAIL: %s fell back to %zu full builds\n", size.label,
                  run.full_builds);
      return 1;
    }
  }

  // ---- Segment sharing: patch bytes vs full-CSR bytes -----------------
  // PR 5's patch path rewrote the whole CSR arrays every time, so its
  // per-patch copy cost was always ~|csr| bytes. The segmented store
  // copies only dirty segments; the ratio below is the measured
  // reduction. The 1-edge and clustered 0.1% cases carry hard floors
  // (>=5x reduction, clustered <20% of |csr| bytes); the uniform 0.1%
  // case is reported honestly — random endpoints on a 60k-vertex graph
  // land in nearly every 1024-vertex segment, so sharing is minimal and
  // the win there is the patch-vs-rebuild speedup above, not bytes.
  PrintHeader("segment sharing: per-patch copy bytes");
  const auto base_csr = kaskade::graph::CsrGraph::Build(graph);
  size_t csr_bytes = 0;
  for (size_t i = 0; i < base_csr.num_segments(); ++i)
    csr_bytes += base_csr.segment(i)->ByteSize();
  std::printf("full CSR: %zu segments, %.2f MiB\n", base_csr.num_segments(),
              csr_bytes / (1024.0 * 1024.0));
  JsonReport::Record("segment_sharing", "csr_segments",
                     double(base_csr.num_segments()));
  JsonReport::Record("segment_sharing", "csr_bytes", double(csr_bytes));

  struct SharingCase {
    const char* label;
    size_t edges;
    bool clustered;
    double max_bytes_fraction;  // 0 = no assertion (honest reporting)
  };
  const SharingCase kSharing[] = {
      {"sharing_1_edge", 1, false, 0.20},
      {"sharing_0.1pct_clustered", num_edges / 1000, true, 0.20},
      {"sharing_0.1pct_uniform", num_edges / 1000, false, 0.0},
  };
  bool sharing_ok = true;
  std::printf("%-26s %12s %14s %10s %10s\n", "case", "bytes/patch",
              "of_csr_bytes", "segs_cp", "segs_sh");
  for (const SharingCase& c : kSharing) {
    SharingResult r = RunSharingMode(graph, c.edges, c.clustered, kIterations);
    const double fraction = csr_bytes > 0 ? r.bytes_per_patch / csr_bytes : 1;
    const double reduction = r.bytes_per_patch > 0
                                 ? csr_bytes / r.bytes_per_patch
                                 : 0;
    std::printf("%-26s %12.0f %13.1f%% %10.1f %10.1f\n", c.label,
                r.bytes_per_patch, fraction * 100, r.segs_copied_per_patch,
                r.segs_shared_per_patch);
    JsonReport::Record(c.label, "delta_edges", double(c.edges));
    JsonReport::Record(c.label, "bytes_copied_per_patch", r.bytes_per_patch);
    JsonReport::Record(c.label, "fraction_of_csr_bytes", fraction);
    JsonReport::Record(c.label, "copy_reduction_vs_full", reduction);
    JsonReport::Record(c.label, "segments_copied_per_patch",
                       r.segs_copied_per_patch);
    JsonReport::Record(c.label, "segments_shared_per_patch",
                       r.segs_shared_per_patch);
    JsonReport::Record(c.label, "snapshot_patches", double(r.patches));
    JsonReport::Record(c.label, "snapshot_full_builds",
                       double(r.full_builds));
    if (c.max_bytes_fraction > 0 &&
        (fraction >= c.max_bytes_fraction || reduction < 5.0)) {
      std::printf("FAIL: %s copied %.1f%% of the CSR per patch "
                  "(budget %.0f%%, reduction %.1fx < 5x)\n",
                  c.label, fraction * 100, c.max_bytes_fraction * 100,
                  reduction);
      sharing_ok = false;
    }
  }
  if (!sharing_ok) return 1;
  return JsonReport::Finish();
}
