/// \file bench.h
/// \brief Shared plumbing of the three benchmark workloads: run
/// configuration, the report every run prints, answer digests, and the
/// traced replay of read calls layer by layer.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/planner.h"
#include "query/table.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for write-ahead logs (inside the checkout).
  std::string work_dir;
  /// Where a traced run writes its spans; empty = do not write them.
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a percentile; 0 for other metrics.
  size_t samples = 0;
};

/// Everything one run prints.
struct Report {
  std::string workload;
  /// Ops attempted, ops that failed, and answers that disagreed with an
  /// oracle. `failed` in the final JSON counts both failure kinds.
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;
  uint64_t mismatches = 0;
  /// The end-to-end metrics BENCHMARK.json names (every workload fills
  /// all of them).
  std::vector<Metric> end_to_end;
  /// Per-class end-to-end metrics under their own names.
  std::vector<Metric> classes;
  /// Per-layer metrics of a traced run.
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<Coverage> coverage;
  std::vector<std::string> errors;
  /// Observations that do not fail the run (a class too small for a tail).
  std::vector<std::string> notes;

  bool correct() const { return failed_ops == 0 && mismatches == 0; }
  void Meta(const std::string& key, const std::string& value) {
    meta.emplace_back(key, value);
  }
  void Meta(const std::string& key, double value);
  void Error(const std::string& message);
  void Note(const std::string& message);
  /// Records an op that failed before the run could measure anything.
  void Fail(const std::string& message) {
    Error(message);
    ++attempted;
    ++failed_ops;
  }
};

/// Adds `<name>_p50_<unit>` and `<name>_p<tail>_<unit>` class metrics,
/// values divided by `scale` (samples are in microseconds). A tail the
/// samples cannot support under the tail rule is replaced by the highest
/// one they do support, with a note.
void AddClassPercentiles(Report* report, const std::string& name,
                         const Samples& samples, int tail_per_mille,
                         double scale, const std::string& unit);

/// Windows a gated class's samples are split into; a gated percentile is
/// the median of the windows' percentiles.
inline constexpr size_t kWindows = 4;
/// Samples a p90 needs under the tail rule.
inline constexpr size_t kP90Samples = 100;
static_assert(TailAllowed(kP90Samples, kP90) && !TailAllowed(kP90Samples - 1, kP90));

/// True when this client holds its share of the samples every window's
/// p90 needs. Untraced runs go on until then.
inline bool EnoughForGating(const WindowedSamples& samples, size_t clients = 1) {
  return samples.size() * clients >= kWindows * kP90Samples;
}

/// The gated end-to-end metrics, in BENCHMARK.json order. `primary` and
/// `secondary` are the workload's two gated latency classes, each gated
/// at its median and p90 (medians over the run's windows).
void SetEndToEnd(Report* report, double setup_s, double read_qps,
                 const WindowedSamples& primary,
                 const WindowedSamples& secondary);

/// Order-independent digest of a result table: rows are rendered (doubles
/// to 9 significant digits, so summation order cannot flip a digest),
/// sorted, and hashed.
uint64_t TableDigest(const kaskade::query::Table& table);

/// VmHWM of this process in MiB.
double PeakRssMb();

/// Heap bytes of a CSR snapshot (sum over its segments).
size_t CsrBytes(const kaskade::graph::CsrGraph& csr);

/// Planner options the engine derives from `options` (plan choice costs
/// queries with the selector's evaluation model).
kaskade::core::PlannerOptions MirrorPlannerOptions(
    const kaskade::core::EngineOptions& options);

/// Telemetry counter differences over a measured window.
struct TelemetryDelta {
  double plan_hits = 0, plan_misses = 0;
  double snapshot_patches = 0, snapshot_full_builds = 0;
  double segments_copied = 0, segments_shared = 0, patch_bytes = 0;
  double fused_groups = 0, fused_members = 0;
  double wal_bytes = 0, wal_fsyncs = 0, checkpoints = 0;

  static TelemetryDelta Between(const kaskade::core::EngineTelemetry& a,
                                const kaskade::core::EngineTelemetry& b);
};

/// Per-layer accumulators of one client; merged at the end of a run.
struct LayerTotals {
  // Reads (solo Execute).
  Samples facade_us, parse_us, plan_us, snapshot_us, exec_us;
  uint64_t reads = 0, used_view = 0, expansions = 0, rows = 0;
  // Batches.
  uint64_t batch_members = 0, batch_expansions = 0;
  // Writes (prov_churn, replica side).
  Samples validate_us, apply_us, maintain_us, wal_append_us, fsync_wait_us,
      refresh_us;
  uint64_t writes = 0, maintained_paths = 0, views_incremental = 0,
           views_rematerialized = 0, user_bytes = 0;
  // Set-up (prov workloads; medians over the repeated set-ups).
  std::vector<double> advise_s, build_s;
  double candidates = 0, q_error = 0, view_edges = 0;

  void Merge(const LayerTotals& other);
};

/// Traced runs: builds every per-layer metric from the merged totals, the
/// engine telemetry difference over the traced window and the engine's
/// base snapshot (layers a workload does not exercise read 0), computes
/// span coverage, and writes the spans out.
void FinishTrace(Report* report, const RunConfig& config,
                 const LayerTotals& totals, const TelemetryDelta& delta,
                 const kaskade::core::Engine& engine,
                 const std::vector<const Tracer*>& tracers);

/// Runs reads through the engine and, when tracing, replays the layers
/// the engine call passed through: the plan lookup on a mirror planner
/// with the engine's cache capacity, the catalog snapshot, and the
/// executor over the plan's target. One instance per client thread.
class ReadPath {
 public:
  ReadPath(kaskade::core::Engine* engine,
           const kaskade::core::EngineOptions& options,
           kaskade::core::Planner* mirror, Tracer* tracer, LayerTotals* totals)
      : engine_(engine),
        options_(options),
        mirror_(mirror),
        tracer_(tracer),
        totals_(totals) {}

  /// `Engine::Execute`; `wall_us` receives the call's wall time.
  kaskade::Result<kaskade::core::ExecutionResult> Execute(
      const std::string& text, double* wall_us);

  /// `Engine::ExecuteBatch`; `wall_us` receives the call's wall time.
  std::vector<kaskade::Result<kaskade::core::ExecutionResult>> ExecuteBatch(
      const std::vector<std::string>& texts, double* wall_us);

  /// Traced runs only: the first snapshot call after a write, on the
  /// target the next read of `text` plans against.
  void TimeRefresh(const std::string& text);

 private:
  /// Resolves a plan's target graph and catalog snapshot (one span).
  struct Target {
    const kaskade::graph::PropertyGraph* graph = nullptr;
    std::shared_ptr<const kaskade::graph::CsrGraph> csr;
  };
  Target ResolveTarget(const kaskade::core::Plan& plan, uint64_t op,
                       int32_t parent);
  void ReplayRead(const std::string& text, uint64_t op, int32_t root);
  void ReplayBatch(const std::vector<std::string>& texts, uint64_t op,
                   int32_t root);

  kaskade::core::Engine* engine_;
  const kaskade::core::EngineOptions& options_;
  kaskade::core::Planner* mirror_;
  Tracer* tracer_;  ///< Null in untraced runs.
  LayerTotals* totals_;
};

Report RunProvAnalytics(const RunConfig& config);
Report RunProvChurn(const RunConfig& config);
Report RunSocialPoint(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
