/// \file prov.cc
/// \brief The provenance workloads: `prov_analytics` (read-only rounds of
/// the Table IV analytic set over advisor-built views) and `prov_churn`
/// (WAL-logged `ApplyDelta` writes beside anchored reads on the same views).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "core/maintenance.h"
#include "core/materializer.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "durability/wal.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/serialization.h"
#include "opstream.h"
#include "query/executor.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using kaskade::Result;
using kaskade::Status;
using kaskade::core::AdvicePlan;
using kaskade::core::CatalogEntry;
using kaskade::core::Engine;
using kaskade::core::EngineOptions;
using kaskade::core::ExecutionResult;
using kaskade::core::MaterializedView;
using kaskade::core::ViewMaintainer;
using kaskade::graph::EdgeId;
using kaskade::graph::GraphDelta;
using kaskade::graph::PropertyGraph;
using kaskade::graph::PropertyValue;
using kaskade::graph::VertexId;

/// Generator seed of both provenance datasets. The dataset is fixed so
/// that runs with different workload seeds compare one graph: the cost
/// of the blast-radius query varies about threefold between generator
/// seeds at this size. The workload seed drives the op streams.
constexpr uint64_t kProvDatasetSeed = 42;

/// prov_analytics scale: a tenth of the default provenance graph, the
/// size at which one round including Q1 takes tens of milliseconds.
constexpr double kAnalyticsScale = 0.1;
/// prov_churn scale: twice the default graph, so it spans many
/// 1024-vertex CSR segments. Q1 does not fit a round at this size.
constexpr double kChurnScale = 2.0;

constexpr size_t kSetupRepeats = 9;
constexpr size_t kChurnSetupRepeats = 5;
/// prov_churn: edges per `ApplyDelta`, cycles per analytic round, and the
/// WAL bytes that trigger a background checkpoint (several per run).
constexpr size_t kEdgesPerDelta = 16;
constexpr size_t kCyclesPerRound = 100;
/// prov_churn: a cycle starts at most once per period. Each run then does
/// about the same number of writes, so the graph grows alike in every run
/// (peak memory and snapshot costs follow the graph's size), and the
/// write-ahead log's flusher and checkpointer run beside the client
/// rather than in its way. A cycle takes about half a period here.
constexpr auto kCyclePeriod = std::chrono::milliseconds(12);
constexpr uint64_t kCheckpointWalBytes = 256 * 1024;
/// prov_churn: an anchored read is checked against the legacy executor
/// every this many cycles; the views against a from-scratch
/// materialization at these cycle counts and at the end.
constexpr size_t kReadCheckEvery = 64;
constexpr size_t kViewCheckCycles[] = {250, 750};

const char* kLineageText =
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a, b";

struct AnalyticQuery {
  std::string label;
  std::string text;
};

/// Index of Q2 in the set with the blast-radius query.
constexpr size_t kAncestorsIndex = 1;

std::vector<AnalyticQuery> AnalyticSet(bool with_blast_radius) {
  std::vector<AnalyticQuery> set;
  if (with_blast_radius) {
    set.push_back({"q1_blast_radius", kaskade::datasets::BlastRadiusQueryText()});
  }
  set.push_back({"q2_ancestors", kaskade::datasets::AncestorsQueryText("Job", 4)});
  set.push_back({"q3_descendants", kaskade::datasets::DescendantsQueryText("Job", 4)});
  set.push_back({"lineage_2hop", kLineageText});
  return set;
}

PropertyGraph MakeProvDataset(double scale) {
  kaskade::datasets::ProvOptions options;
  options.num_jobs = static_cast<size_t>(options.num_jobs * scale);
  options.num_files = static_cast<size_t>(options.num_files * scale);
  options.num_tasks = static_cast<size_t>(options.num_tasks * scale);
  options.seed = kProvDatasetSeed;
  return kaskade::datasets::MakeProvenanceGraph(options);
}

std::vector<VertexId> LiveOfType(const PropertyGraph& g, const std::string& type) {
  std::vector<VertexId> out;
  const auto id = g.schema().FindVertexType(type);
  if (id == kaskade::graph::kInvalidTypeId) return out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.IsVertexLive(v) && g.VertexType(v) == id) out.push_back(v);
  }
  return out;
}

/// One provenance engine set up the way the workloads serve it.
struct ProvEngine {
  std::unique_ptr<Engine> engine;
  double setup_s = 0;
  double advise_s = 0;
  double build_s = 0;
  AdvicePlan advice;
};

/// Hands a copy of `generated` to a new engine, warms it with the
/// analytic set so the tracker observes it, then runs the engine's own
/// advisor and waits for the views. The copy is not timed.
Result<ProvEngine> SetUpProv(const PropertyGraph& generated,
                             const EngineOptions& options,
                             const std::vector<AnalyticQuery>& warmup) {
  PropertyGraph copy = generated;
  ProvEngine out;
  Clock::time_point t0 = Clock::now();
  out.engine = std::make_unique<Engine>(std::move(copy), options);
  KASKADE_RETURN_IF_ERROR(out.engine->durability_error());
  for (const AnalyticQuery& q : warmup) {
    Result<ExecutionResult> r = out.engine->Execute(q.text);
    if (!r.ok()) return r.status();
  }
  Clock::time_point t1 = Clock::now();
  KASKADE_ASSIGN_OR_RETURN(out.advice, out.engine->Advise());
  Clock::time_point t2 = Clock::now();
  KASKADE_RETURN_IF_ERROR(out.engine->ApplyAdvice(out.advice).status());
  out.engine->WaitForBuilds();
  Clock::time_point t3 = Clock::now();
  KASKADE_RETURN_IF_ERROR(out.engine->TakeBuildError());
  out.setup_s = MicrosBetween(t0, t3) / 1e6;
  out.advise_s = MicrosBetween(t1, t2) / 1e6;
  out.build_s = MicrosBetween(t2, t3) / 1e6;
  return out;
}

/// Repeats the set-up and keeps the last engine; records the medians.
Result<ProvEngine> RepeatedSetUp(const PropertyGraph& generated,
                                 const EngineOptions& options,
                                 const std::vector<AnalyticQuery>& warmup,
                                 size_t repeats, const std::string& wal_dir,
                                 Report* report, LayerTotals* totals,
                                 double* setup_median) {
  std::vector<double> setups;
  ProvEngine kept;
  for (size_t i = 0; i < repeats; ++i) {
    kept.engine.reset();  // One engine alive at a time.
    if (!wal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
      fs::create_directories(wal_dir, ec);
    }
    KASKADE_ASSIGN_OR_RETURN(kept, SetUpProv(generated, options, warmup));
    setups.push_back(kept.setup_s);
    totals->advise_s.push_back(kept.advise_s);
    totals->build_s.push_back(kept.build_s);
  }
  *setup_median = Median(setups);
  report->Meta("setup_repeats", static_cast<double>(repeats));
  // View selection and size estimation, from the kept engine's round.
  const kaskade::core::ViewCatalog& catalog = kept.engine->catalog();
  totals->candidates =
      static_cast<double>(kept.advice.selection.candidates.size());
  for (const auto& selected : kept.advice.selection.selected) {
    const CatalogEntry* entry = catalog.Find(selected.definition.Name());
    if (entry == nullptr) continue;
    double actual = static_cast<double>(entry->view.graph.NumLiveEdges());
    double est = selected.estimated_size_edges;
    if (actual > 0 && est > 0) {
      totals->q_error = std::max({totals->q_error, est / actual, actual / est});
    }
  }
  std::string names;
  for (const CatalogEntry* entry : catalog.Entries()) {
    totals->view_edges += static_cast<double>(entry->view.graph.NumLiveEdges());
    names += (names.empty() ? "" : " ") + entry->name();
  }
  report->Meta("views_built", names.empty() ? "none" : names);
  return kept;
}

void DescribeGraph(Engine& engine, Report* report) {
  const PropertyGraph& g = engine.base_graph();
  auto csr = engine.catalog().BaseSnapshot();
  report->Meta("dataset_generator_seed", static_cast<double>(kProvDatasetSeed));
  report->Meta("vertices", static_cast<double>(g.NumLiveVertices()));
  report->Meta("edges", static_cast<double>(g.NumLiveEdges()));
  report->Meta("csr_bytes", static_cast<double>(CsrBytes(*csr)));
  report->Meta("csr_segments", static_cast<double>(csr->num_segments()));
}

/// Removes a scratch directory when the run leaves scope, on every path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// View canonical form keyed by base-graph lineage, invariant under view
/// id assignment (the differential suites' oracle form).
struct CanonicalView {
  std::vector<std::tuple<int64_t, int64_t, std::string, int64_t>> edges;
  std::vector<int64_t> vertices;
  bool operator==(const CanonicalView&) const = default;
};

CanonicalView Canonicalize(const MaterializedView& view) {
  CanonicalView canon;
  const PropertyGraph& g = view.graph;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.IsVertexLive(v)) {
      canon.vertices.push_back(static_cast<int64_t>(view.view_to_base[v]));
    }
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!g.IsEdgeLive(e)) continue;
    const auto& rec = g.Edge(e);
    PropertyValue paths = g.EdgeProperty(e, "paths");
    canon.edges.emplace_back(
        static_cast<int64_t>(view.view_to_base[rec.source]),
        static_cast<int64_t>(view.view_to_base[rec.target]),
        g.schema().edge_type(rec.type).name, paths.is_int() ? paths.as_int() : 1);
  }
  std::sort(canon.edges.begin(), canon.edges.end());
  std::sort(canon.vertices.begin(), canon.vertices.end());
  return canon;
}

/// Maintained views == from-scratch materialization over the current
/// base graph. Returns the number of views that disagree.
size_t CheckViews(const Engine& engine, Report* report, const char* when) {
  size_t bad = 0;
  for (const CatalogEntry* entry : engine.catalog().Entries()) {
    Result<MaterializedView> scratch =
        kaskade::core::Materialize(engine.base_graph(), entry->view.definition);
    if (!scratch.ok() || !(Canonicalize(*scratch) == Canonicalize(entry->view))) {
      ++bad;
      report->Error(std::string("view ") + entry->name() +
                    " differs from a from-scratch materialization " + when);
    }
  }
  return bad;
}

/// Oracle answers of the analytic set: the raw executor over a fresh CSR
/// of the base graph.
struct RawAnswer {
  uint64_t digest = 0;
  size_t rows = 0;
};

std::vector<RawAnswer> RawAnswers(const PropertyGraph& base,
                                  const std::vector<AnalyticQuery>& set) {
  kaskade::graph::CsrGraph csr = kaskade::graph::CsrGraph::Build(base);
  kaskade::query::QueryExecutor raw(&base, &csr);
  std::vector<RawAnswer> out;
  for (const AnalyticQuery& q : set) {
    Result<kaskade::query::Table> t = raw.ExecuteText(q.text);
    out.push_back(t.ok() ? RawAnswer{TableDigest(*t), t->rows().size()}
                         : RawAnswer{});
  }
  return out;
}

void AddSetupLayerMeta(Report* report, const EngineOptions& options) {
  report->Meta("plan_cache_capacity",
               static_cast<double>(options.planner.cache_capacity));
  report->Meta("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
}

/// Benchmark-owned replica of the write side: a copy of the base graph,
/// the same views with their own maintainers, and a throwaway WAL with
/// the engine's fsync policy. It receives every delta the engine does,
/// so each write-side layer can be timed through its public entry point.
class ChurnReplica {
 public:
  static Result<std::unique_ptr<ChurnReplica>> Create(
      const Engine& engine, const std::string& wal_dir,
      const kaskade::durability::WalOptions& wal_options) {
    auto replica =
        std::unique_ptr<ChurnReplica>(new ChurnReplica(engine.base_graph()));
    for (const CatalogEntry* entry : engine.catalog().Entries()) {
      KASKADE_ASSIGN_OR_RETURN(
          MaterializedView view,
          kaskade::core::Materialize(replica->graph_, entry->view.definition));
      replica->views_.push_back(std::make_unique<MaterializedView>(std::move(view)));
      replica->maintainers_.push_back(std::make_unique<ViewMaintainer>(
          &replica->graph_, replica->views_.back().get()));
    }
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
    fs::create_directories(wal_dir, ec);
    KASKADE_ASSIGN_OR_RETURN(
        replica->wal_,
        kaskade::durability::WriteAheadLog::Open(wal_dir, 1, wal_options));
    return replica;
  }

  /// Applies `delta` (already coalesced) in the engine's order as child
  /// spans of `root`: apply (which validates), WAL append, view
  /// maintenance, durability wait. The stand-alone validation is a probe.
  /// `engine_edges` are the ids the engine allocated; the replica must
  /// allocate the same ones.
  Status Apply(const GraphDelta& delta, const std::vector<EdgeId>& engine_edges,
               Tracer* tracer, uint64_t op, int32_t root, LayerTotals* totals) {
    Clock::time_point s = Clock::now();
    Status valid = delta.Validate(graph_);
    Clock::time_point e = Clock::now();
    tracer->Record(op, root, "graph.delta.validate", s, e, /*probe=*/true);
    totals->validate_us.Add(MicrosBetween(s, e));
    KASKADE_RETURN_IF_ERROR(valid);

    s = Clock::now();
    Result<kaskade::graph::AppliedDelta> applied =
        kaskade::graph::ApplyDeltaToGraph(&graph_, delta);
    e = Clock::now();
    tracer->Record(op, root, "graph.delta.apply", s, e);
    totals->apply_us.Add(MicrosBetween(s, e));
    if (!applied.ok()) return applied.status();
    if (applied->new_edges != engine_edges) {
      return Status::Internal("replica allocated different edge ids");
    }

    std::string payload = kaskade::graph::SerializeDelta(delta);
    totals->user_bytes += payload.size();
    s = Clock::now();
    auto token = wal_->Append(payload);
    e = Clock::now();
    tracer->Record(op, root, "durability.wal.append", s, e);
    totals->wal_append_us.Add(MicrosBetween(s, e));
    if (!token.ok()) return token.status();

    s = Clock::now();
    for (size_t i = 0; i < maintainers_.size(); ++i) {
      auto stats = maintainers_[i]->ApplyDelta(delta);
      if (!stats.ok()) {
        // Kinds without incremental support are re-materialized, as the
        // engine does.
        KASKADE_ASSIGN_OR_RETURN(
            MaterializedView view,
            kaskade::core::Materialize(graph_, views_[i]->definition));
        *views_[i] = std::move(view);
        maintainers_[i] =
            std::make_unique<ViewMaintainer>(&graph_, views_[i].get());
      }
    }
    e = Clock::now();
    tracer->Record(op, root, "core.maintenance.apply", s, e);
    totals->maintain_us.Add(MicrosBetween(s, e));

    s = Clock::now();
    Status durable = wal_->WaitDurable(*token);
    e = Clock::now();
    tracer->Record(op, root, "durability.wal.fsync_wait", s, e);
    totals->fsync_wait_us.Add(MicrosBetween(s, e));
    return durable;
  }

 private:
  explicit ChurnReplica(PropertyGraph graph) : graph_(std::move(graph)) {}

  PropertyGraph graph_;
  std::vector<std::unique_ptr<MaterializedView>> views_;
  std::vector<std::unique_ptr<ViewMaintainer>> maintainers_;
  std::unique_ptr<kaskade::durability::WriteAheadLog> wal_;
};

}  // namespace

Report RunProvAnalytics(const RunConfig& config) {
  Report report;
  report.workload = config.workload;
  const std::vector<AnalyticQuery> set = AnalyticSet(/*with_blast_radius=*/true);
  PropertyGraph generated = MakeProvDataset(kAnalyticsScale);

  EngineOptions options;
  LayerTotals totals;
  double setup_s = 0;
  Result<ProvEngine> prov = RepeatedSetUp(generated, options, set, kSetupRepeats,
                                          "", &report, &totals, &setup_s);
  if (!prov.ok()) {
    report.Fail("set-up failed: " + prov.status().ToString());
    return report;
  }
  Engine& engine = *prov->engine;
  DescribeGraph(engine, &report);
  AddSetupLayerMeta(&report, options);
  report.Meta("client_threads", 1.0);
  report.Meta("analytic_set", "q1_blast_radius q2_ancestors q3_descendants lineage_2hop");
  report.Meta("distinct_texts", static_cast<double>(set.size()));

  kaskade::core::Planner mirror(MirrorPlannerOptions(options));
  Tracer tracer(0);
  ReadPath path(&engine, options, &mirror, config.trace ? &tracer : nullptr,
                &totals);
  RoundStream rounds(config.seed, set.size());

  std::vector<WindowedSamples> per_query(set.size());
  WindowedSamples round_us;
  // Sampled answers: (query index, digest); every answer's row count.
  std::vector<std::pair<size_t, uint64_t>> sampled;
  std::vector<std::vector<size_t>> row_counts(set.size());
  const kaskade::core::EngineTelemetry before = engine.TelemetrySnapshot();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = SecondsAfter(start, config.seconds);
  const Clock::time_point hard_stop = SecondsAfter(start, 2 * config.seconds);
  uint64_t round_index = 0;
  while (true) {
    Clock::time_point now = Clock::now();
    // Untraced runs extend until the gated classes have their samples.
    bool enough = config.trace || (EnoughForGating(round_us) &&
                                   EnoughForGating(per_query[kAncestorsIndex]));
    if ((now >= deadline && enough) || now >= hard_stop) break;
    double round = 0;
    for (size_t q : rounds.Next()) {
      double wall = 0;
      Result<ExecutionResult> r = path.Execute(set[q].text, &wall);
      ++report.attempted;
      if (!r.ok()) {
        ++report.failed_ops;
        report.Error(set[q].label + ": " + r.status().ToString());
        continue;
      }
      round += wall;
      per_query[q].Add(MicrosBetween(start, Clock::now()) / 1e6, wall);
      row_counts[q].push_back(r->table.rows().size());
      if (round_index % 16 == 0) sampled.emplace_back(q, TableDigest(r->table));
    }
    round_us.Add(MicrosBetween(start, Clock::now()) / 1e6, round);
    ++round_index;
  }
  const double measured_s = MicrosBetween(start, Clock::now()) / 1e6;
  const kaskade::core::EngineTelemetry after = engine.TelemetrySnapshot();

  // View-rewritten answers == the raw executor on the base graph.
  const std::vector<RawAnswer> oracle = RawAnswers(engine.base_graph(), set);
  for (size_t q = 0; q < set.size(); ++q) {
    for (size_t n : row_counts[q]) {
      if (n != oracle[q].rows) {
        ++report.mismatches;
        report.Error(set[q].label + ": row count differs from the raw executor");
        break;
      }
    }
  }
  for (const auto& [q, digest] : sampled) {
    if (digest != oracle[q].digest) {
      ++report.mismatches;
      report.Error(set[q].label + ": answer differs from the raw executor");
    }
  }
  report.Meta("answers_checked", static_cast<double>(sampled.size()));
  report.Meta("rounds", static_cast<double>(round_us.size()));
  report.Meta("measured_s", measured_s);
  report.Meta("op_stream_digest", std::to_string(rounds.digest()));

  uint64_t reads = 0;
  for (const WindowedSamples& s : per_query) reads += s.size();
  const double read_qps = reads / measured_s;
  AddClassPercentiles(&report, "analytic_round", round_us.all(), kP90, 1000, "ms");
  for (size_t q = 0; q < set.size(); ++q) {
    AddClassPercentiles(&report, set[q].label, per_query[q].all(), kP90, 1, "us");
  }
  report.classes.push_back({"read_qps", read_qps, "1/s"});
  report.classes.push_back({"setup_s", setup_s, "s"});
  // primary = one analytic round, secondary = one Q2 ancestors query.
  SetEndToEnd(&report, setup_s, read_qps, round_us, per_query[kAncestorsIndex]);
  if (config.trace) {
    FinishTrace(&report, config, totals, TelemetryDelta::Between(before, after),
                engine, {&tracer});
  }
  return report;
}

Report RunProvChurn(const RunConfig& config) {
  Report report;
  report.workload = config.workload;
  const std::vector<AnalyticQuery> set = AnalyticSet(/*with_blast_radius=*/false);
  PropertyGraph generated = MakeProvDataset(kChurnScale);
  const std::vector<VertexId> jobs = LiveOfType(generated, "Job");
  const std::vector<VertexId> files = LiveOfType(generated, "File");

  // Declared before the engine and the replica, so removed after both.
  const ScratchDir wal_dir{config.work_dir + "/prov_churn_wal"};
  const ScratchDir replica_dir{config.work_dir + "/replica_wal"};
  EngineOptions options;
  options.durability.dir = wal_dir.path;
  // Every write is logged and checkpoints run, but the log is not fsynced:
  // on the shared disk this benchmark was sized on, fsync latency moved the
  // freshness p90 by about 40% between runs of the same code and slowed the
  // reads beside it (three runs each in one period: 6.9-7.0 ms without
  // fsync, 9.5-12.9 ms with the `batch` policy).
  options.durability.fsync_policy = kaskade::durability::FsyncPolicy::kNone;
  options.durability.checkpoint_wal_bytes = kCheckpointWalBytes;
  LayerTotals totals;
  double setup_s = 0;
  Result<ProvEngine> prov =
      RepeatedSetUp(generated, options, set, kChurnSetupRepeats, wal_dir.path,
                    &report, &totals, &setup_s);
  if (!prov.ok()) {
    report.Fail("set-up failed: " + prov.status().ToString());
    return report;
  }
  Engine& engine = *prov->engine;
  DescribeGraph(engine, &report);
  AddSetupLayerMeta(&report, options);
  report.Meta("client_threads", 1.0);
  report.Meta("fsync_policy", kaskade::durability::FsyncPolicyName(
                                  options.durability.fsync_policy));
  report.Meta("checkpoint_wal_bytes", static_cast<double>(kCheckpointWalBytes));
  report.Meta("edges_per_delta", static_cast<double>(kEdgesPerDelta));
  report.Meta("cycles_per_round", static_cast<double>(kCyclesPerRound));
  report.Meta("analytic_set", "q2_ancestors q3_descendants lineage_2hop");

  std::unique_ptr<ChurnReplica> replica;
  if (config.trace) {
    kaskade::durability::WalOptions wal_options;
    wal_options.fsync_policy = options.durability.fsync_policy;
    wal_options.flush_interval = options.durability.flush_interval;
    auto created = ChurnReplica::Create(engine, replica_dir.path, wal_options);
    if (!created.ok()) {
      report.Fail("replica: " + created.status().ToString());
      return report;
    }
    replica = std::move(*created);
  }

  kaskade::core::Planner mirror(MirrorPlannerOptions(options));
  Tracer tracer(0);
  Tracer* tr = config.trace ? &tracer : nullptr;
  ReadPath path(&engine, options, &mirror, tr, &totals);
  ChurnStream stream(config.seed, jobs.size(), files.size(), kEdgesPerDelta);
  std::vector<std::string> job_names;
  job_names.reserve(jobs.size());
  for (VertexId j : jobs) {
    job_names.push_back(engine.base_graph().VertexProperty(j, "name").as_string());
  }
  auto read_text = [&](uint32_t slot) {
    return std::string(
               "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->"
               "(b:Job) WHERE a.name = '") +
           job_names[slot] + "' RETURN a, b";
  };

  Samples write_us, round_us;
  WindowedSamples fresh_us, point_us;
  std::vector<EdgeId> owned;
  std::unordered_set<std::string> texts;
  int64_t timestamp = 1'000'000'000;
  size_t cycles = 0, analytic_reads = 0, reads_checked = 0, views_checked = 0;
  double paused_us = 0;  // Untimed correctness checks.
  const kaskade::core::EngineTelemetry before = engine.TelemetrySnapshot();
  const Clock::time_point start = Clock::now();
  Clock::time_point next_cycle = start;
  auto measured_s = [&] {
    return (MicrosBetween(start, Clock::now()) - paused_us) / 1e6;
  };
  while (true) {
    double elapsed = measured_s();
    bool enough = config.trace ||
                  (EnoughForGating(fresh_us) && EnoughForGating(point_us));
    if ((elapsed >= config.seconds && enough) || elapsed >= 2 * config.seconds) {
      break;
    }
    std::this_thread::sleep_until(next_cycle);
    next_cycle = std::max(Clock::now(), next_cycle + kCyclePeriod);
    ChurnCycle cycle = stream.Next();
    GraphDelta delta;
    for (const auto& [job, file] : cycle.inserts) {
      kaskade::graph::PropertyMap props;
      props.Set("timestamp", PropertyValue(timestamp++));
      delta.AddEdge(jobs[job], files[file], "WRITES_TO", std::move(props));
    }
    for (uint64_t slot : cycle.removal_slots) {
      if (owned.empty()) break;
      size_t i = slot % owned.size();
      delta.RemoveEdge(owned[i]);
      owned[i] = owned.back();
      owned.pop_back();
    }
    delta.Coalesce();
    GraphDelta replica_delta = tr != nullptr ? delta : GraphDelta{};

    ++report.attempted;
    const Clock::time_point w0 = Clock::now();
    Result<kaskade::core::DeltaReport> written = engine.ApplyDelta(std::move(delta));
    const Clock::time_point w1 = Clock::now();
    if (!written.ok()) {
      ++report.failed_ops;
      report.Error("ApplyDelta: " + written.status().ToString());
      continue;
    }
    write_us.Add(MicrosBetween(w0, w1));
    owned.insert(owned.end(), written->new_edges.begin(), written->new_edges.end());
    if (tr != nullptr) {
      uint64_t op = tr->NewOp();
      int32_t root = tr->Record(op, -1, "core.engine.apply_delta", w0, w1);
      Status s = replica->Apply(replica_delta, written->new_edges, tr, op, root,
                                &totals);
      if (!s.ok()) {
        ++report.mismatches;
        report.Error("replica: " + s.ToString());
      }
      ++totals.writes;
      totals.maintained_paths +=
          written->maintenance.paths_added + written->maintenance.paths_removed;
      totals.views_incremental += written->views_incremental;
      totals.views_rematerialized += written->views_rematerialized;
    }

    const std::string text = read_text(cycle.read_job_slot);
    texts.insert(text);
    path.TimeRefresh(text);
    double read_wall = 0;
    ++report.attempted;
    Result<ExecutionResult> read = path.Execute(text, &read_wall);
    const Clock::time_point r1 = Clock::now();
    if (!read.ok()) {
      ++report.failed_ops;
      report.Error("anchored read: " + read.status().ToString());
    } else {
      const double at_s = measured_s();
      point_us.Add(at_s, read_wall);
      fresh_us.Add(at_s, MicrosBetween(w0, r1));
    }
    ++cycles;

    if (cycles % kCyclesPerRound == 0) {
      double round = 0;
      bool ok = true;
      for (size_t q = 0; q < set.size(); ++q) {
        double wall = 0;
        ++report.attempted;
        Result<ExecutionResult> r = path.Execute(set[q].text, &wall);
        if (!r.ok()) {
          ++report.failed_ops;
          report.Error(set[q].label + ": " + r.status().ToString());
          ok = false;
          continue;
        }
        ++analytic_reads;
        round += wall;
      }
      if (ok) round_us.Add(round);
    }

    const bool check_read = read.ok() && cycles % kReadCheckEvery == 0;
    const bool check_views =
        std::find(std::begin(kViewCheckCycles), std::end(kViewCheckCycles),
                  cycles) != std::end(kViewCheckCycles);
    if (check_read || check_views) {
      const Clock::time_point p0 = Clock::now();
      if (check_read) {
        kaskade::query::QueryExecutor legacy(&engine.base_graph());
        auto expected = legacy.ExecuteText(text);
        ++reads_checked;
        if (!expected.ok() || TableDigest(*expected) != TableDigest(read->table)) {
          ++report.mismatches;
          report.Error("anchored read differs from the legacy executor: " + text);
        }
      }
      if (check_views) {
        report.mismatches += CheckViews(engine, &report, "during the run");
        ++views_checked;
      }
      paused_us += MicrosBetween(p0, Clock::now());
    }
  }
  const double measured = measured_s();
  engine.WaitForBuilds();
  const kaskade::core::EngineTelemetry after = engine.TelemetrySnapshot();

  // End of run: every maintained view == a from-scratch engine over the
  // final graph, and both engines answer the analytic set alike.
  report.mismatches += CheckViews(engine, &report, "at the end");
  ++views_checked;
  {
    Engine scratch(engine.base_graph());
    for (const CatalogEntry* entry : engine.catalog().Entries()) {
      Status s = scratch.AddMaterializedView(entry->view.definition);
      if (!s.ok()) report.Error("from-scratch engine: " + s.ToString());
    }
    for (const CatalogEntry* entry : engine.catalog().Entries()) {
      const CatalogEntry* fresh = scratch.catalog().Find(entry->name());
      if (fresh == nullptr || !(Canonicalize(fresh->view) == Canonicalize(entry->view))) {
        ++report.mismatches;
        report.Error("view " + entry->name() + " differs from the from-scratch engine");
      }
    }
    const std::vector<RawAnswer> oracle = RawAnswers(engine.base_graph(), set);
    for (size_t q = 0; q < set.size(); ++q) {
      auto mine = engine.Execute(set[q].text);
      auto theirs = scratch.Execute(set[q].text);
      if (!mine.ok() || !theirs.ok() ||
          TableDigest(mine->table) != TableDigest(theirs->table) ||
          TableDigest(mine->table) != oracle[q].digest) {
        ++report.mismatches;
        report.Error(set[q].label + ": answer differs from the from-scratch engine");
      }
    }
  }
  report.Meta("writes", static_cast<double>(write_us.size()));
  report.Meta("reads_checked", static_cast<double>(reads_checked));
  report.Meta("view_checks", static_cast<double>(views_checked));
  report.Meta("distinct_texts", static_cast<double>(texts.size() + set.size()));
  report.Meta("final_edges", static_cast<double>(engine.base_graph().NumLiveEdges()));
  report.Meta("checkpoints_written",
              static_cast<double>(after.checkpoints_written - before.checkpoints_written));
  report.Meta("measured_s", measured);
  report.Meta("op_stream_digest", std::to_string(stream.digest()));

  const double read_qps = (point_us.size() + analytic_reads) / measured;
  AddClassPercentiles(&report, "write", write_us, kP99, 1, "us");
  AddClassPercentiles(&report, "freshness", fresh_us.all(), kP90, 1, "us");
  AddClassPercentiles(&report, "point", point_us.all(), kP99, 1, "us");
  AddClassPercentiles(&report, "analytic_round", round_us, kP90, 1000, "ms");
  report.classes.push_back({"read_qps", read_qps, "1/s"});
  report.classes.push_back({"setup_s", setup_s, "s"});
  // primary = write-to-read freshness (which includes the write), secondary
  // = one anchored read.
  SetEndToEnd(&report, setup_s, read_qps, fresh_us, point_us);
  if (config.trace) {
    FinishTrace(&report, config, totals, TelemetryDelta::Between(before, after),
                engine, {&tracer});
  }
  return report;
}

}  // namespace perfbench
