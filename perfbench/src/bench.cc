#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "query/executor.h"
#include "query/fused_runner.h"
#include "query/parser.h"
#include "opstream.h"

namespace perfbench {

using kaskade::Result;
using kaskade::core::CatalogEntry;
using kaskade::core::Engine;
using kaskade::core::EngineTelemetry;
using kaskade::core::ExecutionResult;
using kaskade::core::Plan;

namespace {

std::string PercentileLabel(int per_mille) {
  std::string label = "p";
  label += std::to_string(per_mille % 10 == 0 ? per_mille / 10 : per_mille);
  return label;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Report::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  meta.emplace_back(key, buf);
}

void Report::Error(const std::string& message) { errors.push_back(message); }

void Report::Note(const std::string& message) { notes.push_back(message); }

void AddClassPercentiles(Report* report, const std::string& name,
                         const Samples& samples, int tail_per_mille,
                         double scale, const std::string& unit) {
  if (samples.empty()) {
    report->Note(name + ": no samples");
    return;
  }
  report->classes.push_back({name + "_p50_" + unit,
                             *samples.Percentile(kP50) / scale, unit,
                             samples.size()});
  int tail = tail_per_mille;
  if (!TailAllowed(samples.size(), tail)) {
    std::optional<int> best = HighestTail(samples.size());
    report->Note(name + ": " + std::to_string(samples.size()) +
                 " samples cannot support a " + PercentileLabel(tail));
    if (!best.has_value() || *best == kP50) return;
    tail = *best;
  }
  report->classes.push_back({name + "_" + PercentileLabel(tail) + "_" + unit,
                             *samples.Percentile(tail) / scale, unit,
                             samples.size()});
}

void SetEndToEnd(Report* report, double setup_s, double read_qps,
                 const WindowedSamples& primary,
                 const WindowedSamples& secondary) {
  auto at = [&](const WindowedSamples& s, int p, const char* what) {
    std::optional<double> v = s.WindowMedian(p, kWindows);
    if (!v.has_value()) {
      report->Note(std::string(what) + " class: " + std::to_string(s.size()) +
                   " samples in " + std::to_string(kWindows) +
                   " windows cannot support a " + PercentileLabel(p));
    }
    return v.value_or(0);
  };
  const size_t np = primary.size(), ns = secondary.size();
  report->end_to_end = {
      {"setup_s", setup_s, "s", 0},
      {"peak_rss_mb", PeakRssMb(), "MiB", 0},
      {"read_qps", read_qps, "1/s", 0},
      {"primary_p50_us", at(primary, kP50, "primary"), "us", np},
      {"primary_p90_us", at(primary, kP90, "primary"), "us", np},
      {"secondary_p50_us", at(secondary, kP50, "secondary"), "us", ns},
      {"secondary_p90_us", at(secondary, kP90, "secondary"), "us", ns},
  };
}

uint64_t TableDigest(const kaskade::query::Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.rows().size());
  for (const auto& row : table.rows()) {
    std::string r;
    for (const kaskade::graph::PropertyValue& v : row) {
      if (v.is_double()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v.as_double());
        r += buf;
      } else {
        r += v.ToString();
      }
      r += '\x1f';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  Digest digest;
  for (const std::string& r : rows) digest.Add(r);
  digest.Add(uint64_t{rows.size()});
  return digest.value();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

size_t CsrBytes(const kaskade::graph::CsrGraph& csr) {
  size_t bytes = 0;
  for (size_t i = 0; i < csr.num_segments(); ++i) {
    bytes += csr.segment(i)->ByteSize();
  }
  return bytes;
}

kaskade::core::PlannerOptions MirrorPlannerOptions(
    const kaskade::core::EngineOptions& options) {
  kaskade::core::PlannerOptions planner = options.planner;
  planner.eval_cost = options.selector.cost.eval;
  return planner;
}

TelemetryDelta TelemetryDelta::Between(const EngineTelemetry& a,
                                       const EngineTelemetry& b) {
  auto d = [](auto x, auto y) {
    return static_cast<double>(y) - static_cast<double>(x);
  };
  TelemetryDelta t;
  t.plan_hits = d(a.plan_cache_hits, b.plan_cache_hits);
  t.plan_misses = d(a.plan_cache_misses, b.plan_cache_misses);
  t.snapshot_patches = d(a.snapshot_patches, b.snapshot_patches);
  t.snapshot_full_builds = d(a.snapshot_full_builds, b.snapshot_full_builds);
  t.segments_copied = d(a.patch_segments_copied, b.patch_segments_copied);
  t.segments_shared = d(a.patch_segments_shared, b.patch_segments_shared);
  t.patch_bytes = d(a.patch_bytes_copied, b.patch_bytes_copied);
  t.fused_groups = d(a.fused_groups, b.fused_groups);
  t.fused_members = d(a.fused_members, b.fused_members);
  t.wal_bytes = d(a.wal_bytes, b.wal_bytes);
  t.wal_fsyncs = d(a.wal_fsyncs, b.wal_fsyncs);
  t.checkpoints = d(a.checkpoints_written, b.checkpoints_written);
  return t;
}

void LayerTotals::Merge(const LayerTotals& o) {
  for (auto [dst, src] :
       {std::pair{&facade_us, &o.facade_us}, {&parse_us, &o.parse_us},
        {&plan_us, &o.plan_us}, {&snapshot_us, &o.snapshot_us},
        {&exec_us, &o.exec_us},
        {&validate_us, &o.validate_us}, {&apply_us, &o.apply_us},
        {&maintain_us, &o.maintain_us}, {&wal_append_us, &o.wal_append_us},
        {&fsync_wait_us, &o.fsync_wait_us}, {&refresh_us, &o.refresh_us}}) {
    dst->Append(*src);
  }
  reads += o.reads;
  used_view += o.used_view;
  expansions += o.expansions;
  rows += o.rows;
  batch_members += o.batch_members;
  batch_expansions += o.batch_expansions;
  writes += o.writes;
  maintained_paths += o.maintained_paths;
  views_incremental += o.views_incremental;
  views_rematerialized += o.views_rematerialized;
  user_bytes += o.user_bytes;
  advise_s.insert(advise_s.end(), o.advise_s.begin(), o.advise_s.end());
  build_s.insert(build_s.end(), o.build_s.begin(), o.build_s.end());
  candidates = std::max(candidates, o.candidates);
  q_error = std::max(q_error, o.q_error);
  view_edges = std::max(view_edges, o.view_edges);
}

void FinishTrace(Report* report, const RunConfig& config,
                 const LayerTotals& t, const TelemetryDelta& d,
                 const Engine& engine,
                 const std::vector<const Tracer*>& tracers) {
  const double writes = static_cast<double>(t.writes);
  const size_t csr_bytes = CsrBytes(*engine.catalog().BaseSnapshot());
  report->layers = {
      {"core.engine.facade_us", t.facade_us.Mean(), "us"},
      {"query.parser.parse_us", t.parse_us.Mean(), "us"},
      {"core.planner.plan_us", t.plan_us.Mean(), "us"},
      {"core.planner.cache_hit_ratio",
       Ratio(d.plan_hits, d.plan_hits + d.plan_misses), "ratio"},
      {"core.rewriter.view_hit_ratio", Ratio(t.used_view, t.reads), "ratio"},
      {"core.catalog.snapshot_us", t.snapshot_us.Mean(), "us"},
      {"core.catalog.refresh_us", t.refresh_us.Mean(), "us"},
      {"core.catalog.full_builds_per_write",
       Ratio(d.snapshot_full_builds, writes), "ratio"},
      {"graph.csr.bytes_copied_per_patch",
       Ratio(d.patch_bytes, d.snapshot_patches), "bytes"},
      {"graph.csr.segment_share_ratio",
       Ratio(d.segments_shared, d.segments_shared + d.segments_copied),
       "ratio"},
      {"graph.csr.bytes", static_cast<double>(csr_bytes), "bytes"},
      {"query.executor.exec_us", t.exec_us.Mean(), "us"},
      {"query.executor.expansions_per_query",
       Ratio(t.expansions, t.reads), "count"},
      {"query.executor.expansions_per_row", Ratio(t.expansions, t.rows),
       "ratio"},
      {"query.fused_runner.members_per_group",
       Ratio(d.fused_members, d.fused_groups), "count"},
      {"query.fused_runner.expansions_per_member",
       Ratio(t.batch_expansions, t.batch_members), "count"},
      {"graph.delta.validate_us", t.validate_us.Mean(), "us"},
      {"graph.delta.apply_us", t.apply_us.Mean(), "us"},
      {"core.maintenance.apply_us", t.maintain_us.Mean(), "us"},
      {"core.maintenance.paths_per_write", Ratio(t.maintained_paths, writes),
       "count"},
      {"core.maintenance.incremental_ratio",
       Ratio(t.views_incremental, t.views_incremental + t.views_rematerialized),
       "ratio"},
      {"durability.wal.append_us", t.wal_append_us.Mean(), "us"},
      {"durability.wal.fsync_wait_us", t.fsync_wait_us.Mean(), "us"},
      {"durability.wal.bytes_per_user_byte", Ratio(d.wal_bytes, t.user_bytes),
       "ratio"},
      {"durability.wal.fsyncs_per_write", Ratio(d.wal_fsyncs, writes),
       "ratio"},
      {"durability.checkpoint.count", d.checkpoints, "count"},
      {"core.advisor.advise_s", Median(t.advise_s), "s"},
      {"core.view_selector.candidates", t.candidates, "count"},
      {"core.size_estimator.q_error", t.q_error, "ratio"},
      {"core.materializer.build_s", Median(t.build_s), "s"},
      {"core.materializer.view_edges", t.view_edges, "count"},
  };
  report->coverage = ComputeCoverage(tracers);
  if (!config.span_path.empty() && !WriteSpans(tracers, config.span_path)) {
    report->Error("could not write spans to " + config.span_path);
  }
}

// ---------------------------------------------------------------------------
// ReadPath
// ---------------------------------------------------------------------------

Result<ExecutionResult> ReadPath::Execute(const std::string& text,
                                          double* wall_us) {
  Clock::time_point t0 = Clock::now();
  Result<ExecutionResult> result = engine_->Execute(text);
  Clock::time_point t1 = Clock::now();
  *wall_us = MicrosBetween(t0, t1);
  if (tracer_ == nullptr || !result.ok()) return result;
  uint64_t op = tracer_->NewOp();
  int32_t root = tracer_->Record(op, -1, "core.engine.execute", t0, t1);
  totals_->facade_us.Add(*wall_us - result->latency_us);
  ++totals_->reads;
  totals_->used_view += result->used_view ? 1 : 0;
  totals_->expansions += result->expansions;
  totals_->rows += result->table.rows().size();
  ReplayRead(text, op, root);
  return result;
}

ReadPath::Target ReadPath::ResolveTarget(const Plan& plan, uint64_t op,
                                         int32_t parent) {
  Target target;
  Clock::time_point s = Clock::now();
  const kaskade::core::ViewCatalog& catalog = engine_->catalog();
  if (plan.view_name.empty()) {
    target.graph = &engine_->base_graph();
    target.csr = catalog.BaseSnapshot();
  } else if (const CatalogEntry* entry = catalog.Find(plan.view_name)) {
    target.graph = &entry->view.graph;
    target.csr = catalog.SnapshotFor(entry->handle);
  }
  Clock::time_point e = Clock::now();
  tracer_->Record(op, parent, "core.catalog.snapshot", s, e);
  totals_->snapshot_us.Add(MicrosBetween(s, e));
  return target;
}

void ReadPath::ReplayRead(const std::string& text, uint64_t op, int32_t root) {
  const kaskade::graph::PropertyGraph& base = engine_->base_graph();
  const kaskade::core::ViewCatalog& catalog = engine_->catalog();
  // Engine order: plan (cache lookup, parse + plan on a miss), snapshot,
  // execute.
  Clock::time_point s = Clock::now();
  Result<Plan> plan = mirror_->PlanFor(text, base, catalog);
  Clock::time_point e = Clock::now();
  tracer_->Record(op, root, "core.planner.lookup", s, e);
  if (!plan.ok()) return;
  Target target = ResolveTarget(*plan, op, root);
  if (target.graph != nullptr) {
    kaskade::query::QueryExecutor executor(target.graph, target.csr.get(),
                                           options_.executor);
    s = Clock::now();
    Result<kaskade::query::Table> table =
        executor.ExecuteText(plan->executed_query);
    e = Clock::now();
    tracer_->Record(op, root, "query.executor.exec", s, e);
    totals_->exec_us.Add(MicrosBetween(s, e));
  }
  // Probes: the parser and an uncached plan search, timed on their own.
  s = Clock::now();
  Result<kaskade::query::Query> parsed = kaskade::query::ParseQueryText(text);
  e = Clock::now();
  tracer_->Record(op, root, "query.parser.parse", s, e, /*probe=*/true);
  totals_->parse_us.Add(MicrosBetween(s, e));
  if (!parsed.ok()) return;
  Plan uncached;
  s = Clock::now();
  kaskade::Status planned = mirror_->ChoosePlan(*parsed, base, catalog, &uncached);
  e = Clock::now();
  tracer_->Record(op, root, "core.planner.plan", s, e, /*probe=*/true);
  if (planned.ok()) totals_->plan_us.Add(MicrosBetween(s, e));
}

std::vector<Result<ExecutionResult>> ReadPath::ExecuteBatch(
    const std::vector<std::string>& texts, double* wall_us) {
  Clock::time_point t0 = Clock::now();
  std::vector<Result<ExecutionResult>> results = engine_->ExecuteBatch(texts);
  Clock::time_point t1 = Clock::now();
  *wall_us = MicrosBetween(t0, t1);
  if (tracer_ != nullptr) {
    uint64_t op = tracer_->NewOp();
    int32_t root = tracer_->Record(op, -1, "core.engine.execute_batch", t0, t1);
    ReplayBatch(texts, op, root);
  }
  return results;
}

void ReadPath::ReplayBatch(const std::vector<std::string>& texts, uint64_t op,
                           int32_t root) {
  const kaskade::graph::PropertyGraph& base = engine_->base_graph();
  const kaskade::core::ViewCatalog& catalog = engine_->catalog();
  std::vector<std::optional<Plan>> plans(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    Clock::time_point s = Clock::now();
    Result<Plan> plan = mirror_->PlanFor(texts[i], base, catalog);
    Clock::time_point e = Clock::now();
    tracer_->Record(op, root, "core.planner.lookup", s, e);
    if (plan.ok()) plans[i].emplace(std::move(*plan));
  }
  // The engine's grouping: same view and shape key, at least
  // `min_group_size` members, runs as one fused traversal.
  std::map<std::string, std::vector<size_t>> groups;
  std::vector<size_t> solo;
  const size_t min_group =
      std::max<size_t>(2, options_.executor.fusion.min_group_size);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i].has_value()) continue;
    if (options_.executor.fusion.enabled && !plans[i]->shape_key.empty() &&
        plans[i]->match_ast != nullptr) {
      groups[plans[i]->view_name + '\x1f' + plans[i]->shape_key].push_back(i);
    } else {
      solo.push_back(i);
    }
  }
  for (auto& [key, members] : groups) {
    if (members.size() < min_group) {
      solo.insert(solo.end(), members.begin(), members.end());
      continue;
    }
    Target target = ResolveTarget(*plans[members.front()], op, root);
    if (target.graph == nullptr || target.csr == nullptr) continue;
    std::vector<const kaskade::query::MatchQuery*> asts;
    for (size_t i : members) asts.push_back(plans[i]->match_ast.get());
    kaskade::query::FusedGroupStats stats;
    Clock::time_point s = Clock::now();
    kaskade::query::ExecuteFusedMatch(*target.graph, *target.csr, asts,
                                      options_.executor, &stats);
    Clock::time_point e = Clock::now();
    tracer_->Record(op, root, "query.fused_runner.group", s, e);
    totals_->batch_members += members.size();
    totals_->batch_expansions += stats.expansions;
  }
  for (size_t i : solo) {
    Target target = ResolveTarget(*plans[i], op, root);
    if (target.graph == nullptr) continue;
    kaskade::query::QueryExecutor executor(target.graph, target.csr.get(),
                                           options_.executor);
    kaskade::query::ExecutionTiming timing;
    Clock::time_point s = Clock::now();
    executor.ExecuteText(plans[i]->executed_query, &timing);
    Clock::time_point e = Clock::now();
    tracer_->Record(op, root, "query.executor.exec", s, e);
    ++totals_->batch_members;
    totals_->batch_expansions += timing.expansions;
  }
}

void ReadPath::TimeRefresh(const std::string& text) {
  if (tracer_ == nullptr) return;
  // Find the read's target without touching the mirror's plan cache.
  const kaskade::core::ViewCatalog& catalog = engine_->catalog();
  Result<kaskade::query::Query> parsed = kaskade::query::ParseQueryText(text);
  Plan plan;
  if (!parsed.ok() ||
      !mirror_->ChoosePlan(*parsed, engine_->base_graph(), catalog, &plan).ok()) {
    return;
  }
  uint64_t op = tracer_->NewOp();
  Clock::time_point s = Clock::now();
  if (plan.view_name.empty()) {
    catalog.BaseSnapshot();
  } else if (const CatalogEntry* entry = catalog.Find(plan.view_name)) {
    catalog.SnapshotFor(entry->handle);
  }
  Clock::time_point e = Clock::now();
  // A root of its own with no replayed children: left out of coverage.
  tracer_->Record(op, -1, "core.catalog.refresh", s, e, /*probe=*/true);
  totals_->refresh_us.Add(MicrosBetween(s, e));
}

}  // namespace perfbench
