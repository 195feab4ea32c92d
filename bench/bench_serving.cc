/// \file bench_serving.cc
/// \brief Tier-1 serving benchmark: multi-phase mixed traffic through
/// the declarative workload harness (`src/workload/`).
///
/// The default spec tells the serving story end to end on the social
/// bench graph:
///
///   1. `warmup`      — closed-loop read-heavy traffic; the tracker
///                      observes the hot query set, plan cache fills.
///   2. `mixed`       — open-loop reads + `ApplyDelta` churn; snapshot
///                      patching and incremental maintenance under
///                      concurrent readers.
///   3. `write_burst` — delta-heavy traffic with out-of-band
///                      `MutateBaseGraph` appends; the worst case for
///                      a view-serving engine.
///   4. `recovery`    — read-heavy again with the engine's *periodic
///                      auto-advise trigger* armed
///                      (`auto_advise_every_n_ops` + `workload_decay`):
///                      the engine materializes views for the observed
///                      hot set by itself, mid-traffic.
///   5. `overload`    — open-loop arrivals far above single-core
///                      capacity with a tight per-op `deadline_ms` and
///                      more client threads than the engine's admission
///                      gate admits (`max_concurrent_queries`): the
///                      graceful-degradation story. Excess load is shed
///                      (`kUnavailable`) or expires (`kDeadlineExceeded`)
///                      — by design neither counts as an op failure, and
///                      the phase must finish with zero genuine errors.
///
/// Per phase, the report carries coordinated-omission-corrected latency
/// percentiles (p50/p90/p99/p999) and service-time percentiles per op
/// type, throughput, and the engine telemetry *delta* across the phase
/// (plan-cache hits, snapshot patches vs full builds, background builds,
/// auto-advise rounds) — plus the phase's op-stream digest, which is
/// equal across runs with the same seed (the reproducibility proof).
///
/// Usage: bench_serving [--smoke] [--spec=<path>] [--seed=<n>]
///                      [--shards=<k>] [--durability=<policy>] [--json[=path]]
///   --smoke       seconds-scale 2-phase spec for the CI bench-smoke job
///   --spec        run a spec file instead of the built-in one
///   --seed        override the spec seed (reproducibility experiments)
///   --shards      vertex shards for the base graph's snapshot/patch
///                 pipeline (default 1 = unsharded)
///   --durability  none|batch|every_write: run the engine durable (WAL in
///                 a throwaway dir, given fsync policy) and report the
///                 write-path overhead in the JSON durability section
///
/// Exits non-zero on any phase error, op failure, or empty histogram.

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "durability/wal.h"
#include "workload/generator.h"
#include "workload/orchestrator.h"
#include "workload/spec.h"

namespace {

using kaskade::bench::Die;
using kaskade::bench::JsonReport;
using kaskade::bench::OrDie;
using kaskade::bench::PrintHeader;
using kaskade::core::Engine;
using kaskade::core::EngineOptions;
using kaskade::core::EngineTelemetry;
using kaskade::workload::GeneratorProfile;
using kaskade::workload::kNumOpKinds;
using kaskade::workload::OpKind;
using kaskade::workload::OpKindName;
using kaskade::workload::OpMetrics;
using kaskade::workload::ParseWorkloadSpec;
using kaskade::workload::PhaseResult;
using kaskade::workload::RunResult;
using kaskade::workload::WorkloadRunner;
using kaskade::workload::WorkloadSpec;

/// The built-in 4-phase serving spec (see file comment). Sized for a
/// single-core container (a few minutes of wall clock); the mixed
/// phase's open-loop target sits slightly above what one core sustains
/// (~47 ops/s), so its corrected percentiles visibly exceed the service
/// percentiles — the coordinated-omission story — without degenerating
/// into a pure backlog measurement.
const char* kDefaultSpec = R"(
workload serving_mixed
seed 42
dataset social
phase warmup
  threads 4
  rate 0
  ops_per_thread 1000
  mix execute=90 execute_batch=10
end
phase mixed
  threads 4
  rate 60
  ops_per_thread 800
  mix execute=70 execute_batch=10 apply_delta=20
  batch_size 8
  delta_edges 16
end
phase write_burst
  threads 4
  rate 0
  ops_per_thread 400
  mix execute=30 apply_delta=55 mutate_base=15
  delta_edges 16
end
phase recovery
  threads 4
  rate 0
  ops_per_thread 1000
  mix execute=95 execute_batch=5
end
phase overload
  threads 8
  rate 500
  ops_per_thread 150
  mix execute=100
  deadline_ms 100
end
)";

/// CI smoke spec: same shape, seconds of wall clock.
const char* kSmokeSpec = R"(
workload serving_smoke
seed 7
dataset social
phase smoke_read
  threads 2
  rate 0
  ops_per_thread 150
  mix execute=90 execute_batch=10
end
phase smoke_batch
  threads 2
  rate 0
  ops_per_thread 60
  mix execute=10 execute_batch=90
  batch_size 16
end
phase smoke_mixed
  threads 2
  rate 200
  ops_per_thread 100
  mix execute=70 apply_delta=25 mutate_base=5
  delta_edges 8
end
phase smoke_overload
  threads 6
  rate 400
  ops_per_thread 40
  mix execute=100
  deadline_ms 50
end
)";

/// The recovery phase relies on the engine's own trigger: one advise
/// round every N recorded executions, with epoch decay so the advice
/// tracks the current phase's traffic, not the whole run's history.
EngineOptions ServingEngineOptions(size_t shards) {
  EngineOptions options;
  options.shards = shards;
  options.auto_advise_every_n_ops = 2000;
  options.workload_decay = 0.5;
  // Admission gate: every non-overload phase runs <= 4 client threads,
  // so the gate only engages in the overload phases (8 resp. 6 threads)
  // — there the short wait budget makes contention shed visibly instead
  // of queueing invisibly.
  options.max_concurrent_queries = 4;
  options.admission_wait_budget = std::chrono::microseconds(500);
  return options;
}

/// Serving-scale social graph: smaller than `BenchSocial` because the
/// workload mixes point lookups with full variable-length scans — on
/// the single-core container a scan must cost hundreds of milliseconds,
/// not seconds, for a mixed run to finish in tens of seconds.
kaskade::graph::PropertyGraph ServingSocialGraph() {
  kaskade::datasets::SocialOptions options;
  options.num_vertices = 1200;
  options.edges_per_vertex = 3;
  return kaskade::datasets::MakeSocialGraph(options);
}

/// Serving-scale provenance graph (`--spec` with `dataset prov`).
kaskade::graph::PropertyGraph ServingProvGraph() {
  kaskade::datasets::ProvOptions options;
  options.num_jobs = 300;
  options.num_files = 750;
  options.include_auxiliary = false;
  return kaskade::datasets::MakeProvenanceGraph(options);
}

void PrintPhaseTable(const PhaseResult& phase) {
  std::printf("phase %-12s  %7.2fs wall  %8.0f ops/s  digest %016" PRIx64
              "\n",
              phase.name.c_str(), phase.wall_seconds,
              phase.throughput_ops_per_sec(), phase.op_digest);
  if (phase.refresh_seconds > 0) {
    std::printf("  view refresh after out-of-band mutations: %.3fs\n",
                phase.refresh_seconds);
  }
  std::printf("  %-14s %9s %7s %7s %7s %9s %9s %9s %9s\n", "op", "count",
              "fail", "shed", "t_out", "p50_us", "p90_us", "p99_us",
              "p999_us");
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpMetrics& op = phase.metrics.ops[k];
    if (op.attempted == 0) continue;
    std::printf("  %-14s %9" PRIu64 " %7" PRIu64 " %7" PRIu64 " %7" PRIu64
                " %9.0f %9.0f %9.0f %9.0f\n",
                OpKindName(OpKind(k)), op.attempted, op.failed, op.shed,
                op.timed_out, op.latency.Percentile(0.50),
                op.latency.Percentile(0.90), op.latency.Percentile(0.99),
                op.latency.Percentile(0.999));
  }
  const EngineTelemetry& a = phase.before;
  const EngineTelemetry& b = phase.after;
  std::printf("  engine: +%zu cache hits, +%zu misses, +%zu snap patches, "
              "+%zu snap rebuilds, +%zu builds, +%zu auto-advises, "
              "%zu views ready\n",
              b.plan_cache_hits - a.plan_cache_hits,
              b.plan_cache_misses - a.plan_cache_misses,
              b.snapshot_patches - a.snapshot_patches,
              b.snapshot_full_builds - a.snapshot_full_builds,
              b.builds_completed - a.builds_completed,
              b.auto_advises - a.auto_advises, b.views_ready);
  if (b.fused_groups > a.fused_groups) {
    std::printf("  fusion: +%zu groups, +%zu members fused\n",
                b.fused_groups - a.fused_groups,
                b.fused_members - a.fused_members);
  }
  if (b.queries_shed > a.queries_shed ||
      b.queries_timed_out > a.queries_timed_out ||
      b.quarantine_events > a.quarantine_events) {
    std::printf("  overload: +%zu shed, +%zu timed out, +%" PRIu64
                " deadline checks, +%zu quarantine events (%zu views "
                "quarantined)\n",
                b.queries_shed - a.queries_shed,
                b.queries_timed_out - a.queries_timed_out,
                uint64_t(b.deadline_checks - a.deadline_checks),
                b.quarantine_events - a.quarantine_events,
                b.views_quarantined);
  }
}

void RecordPhase(const PhaseResult& phase) {
  const std::string& s = phase.name;
  JsonReport::Record(s, "wall_seconds", phase.wall_seconds);
  JsonReport::Record(s, "refresh_seconds", phase.refresh_seconds);
  JsonReport::Record(s, "throughput_ops_per_sec",
                     phase.throughput_ops_per_sec());
  JsonReport::Record(s, "op_digest", double(phase.op_digest));
  JsonReport::Record(s, "ops_attempted",
                     double(phase.metrics.total_attempted()));
  JsonReport::Record(s, "ops_failed", double(phase.metrics.total_failed()));
  JsonReport::Record(s, "ops_shed", double(phase.metrics.total_shed()));
  JsonReport::Record(s, "ops_timed_out",
                     double(phase.metrics.total_timed_out()));
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpMetrics& op = phase.metrics.ops[k];
    if (op.attempted == 0) continue;
    const std::string prefix = OpKindName(OpKind(k));
    JsonReport::Record(s, prefix + "_count", double(op.attempted));
    JsonReport::Record(s, prefix + "_failed", double(op.failed));
    JsonReport::Record(s, prefix + "_p50_us", op.latency.Percentile(0.50));
    JsonReport::Record(s, prefix + "_p90_us", op.latency.Percentile(0.90));
    JsonReport::Record(s, prefix + "_p99_us", op.latency.Percentile(0.99));
    JsonReport::Record(s, prefix + "_p999_us", op.latency.Percentile(0.999));
    JsonReport::Record(s, prefix + "_mean_us", op.latency.mean_us());
    JsonReport::Record(s, prefix + "_service_p99_us",
                       op.service.Percentile(0.99));
  }
  const EngineTelemetry& a = phase.before;
  const EngineTelemetry& b = phase.after;
  JsonReport::Record(s, "plan_cache_hits_delta",
                     double(b.plan_cache_hits - a.plan_cache_hits));
  JsonReport::Record(s, "plan_cache_misses_delta",
                     double(b.plan_cache_misses - a.plan_cache_misses));
  JsonReport::Record(s, "snapshot_patches_delta",
                     double(b.snapshot_patches - a.snapshot_patches));
  JsonReport::Record(s, "snapshot_full_builds_delta",
                     double(b.snapshot_full_builds - a.snapshot_full_builds));
  JsonReport::Record(s, "builds_completed_delta",
                     double(b.builds_completed - a.builds_completed));
  JsonReport::Record(s, "builds_replayed_delta",
                     double(b.builds_replayed - a.builds_replayed));
  JsonReport::Record(s, "auto_advises_delta",
                     double(b.auto_advises - a.auto_advises));
  JsonReport::Record(s, "auto_advise_errors_delta",
                     double(b.auto_advise_errors - a.auto_advise_errors));
  JsonReport::Record(s, "views_ready_end", double(b.views_ready));
  JsonReport::Record(s, "queries_recorded_delta",
                     double(b.queries_recorded - a.queries_recorded));
  JsonReport::Record(s, "fused_groups_delta",
                     double(b.fused_groups - a.fused_groups));
  JsonReport::Record(s, "fused_members_delta",
                     double(b.fused_members - a.fused_members));
  JsonReport::Record(s, "traversal_expansions_delta",
                     double(b.traversal_expansions - a.traversal_expansions));
  JsonReport::Record(s, "queries_shed_delta",
                     double(b.queries_shed - a.queries_shed));
  JsonReport::Record(s, "queries_timed_out_delta",
                     double(b.queries_timed_out - a.queries_timed_out));
  JsonReport::Record(s, "deadline_checks_delta",
                     double(b.deadline_checks - a.deadline_checks));
  JsonReport::Record(s, "quarantine_events_delta",
                     double(b.quarantine_events - a.quarantine_events));
  JsonReport::Record(s, "views_quarantined_end",
                     double(b.views_quarantined));
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("spec file", "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport::Init(argc, argv, "serving");

  bool smoke = false;
  std::string spec_path;
  uint64_t seed_override = 0;
  bool seed_set = false;
  size_t shards = 1;
  std::string durability_policy;  // empty or "off" = volatile engine
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--spec=", 7) == 0) {
      spec_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed_override = std::strtoull(argv[i] + 7, nullptr, 10);
      seed_set = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::strtoull(argv[i] + 9, nullptr, 10);
      if (shards == 0) shards = 1;
    } else if (std::strncmp(argv[i], "--durability=", 13) == 0) {
      durability_policy = argv[i] + 13;
    }
  }

  const std::string spec_text = !spec_path.empty() ? ReadFileOrDie(spec_path)
                                : smoke            ? kSmokeSpec
                                                   : kDefaultSpec;
  WorkloadSpec spec = OrDie(ParseWorkloadSpec(spec_text), "parse spec");
  if (seed_set) spec.seed = seed_override;

  kaskade::graph::PropertyGraph graph =
      spec.dataset == "prov" ? ServingProvGraph() : ServingSocialGraph();
  std::printf("workload %s: dataset %s (%zu vertices, %zu edges), seed "
              "%" PRIu64 ", %zu phases\n",
              spec.name.c_str(), spec.dataset.c_str(), graph.NumVertices(),
              graph.NumLiveEdges(), spec.seed, spec.phases.size());
  JsonReport::Record("meta", "seed", double(spec.seed));
  JsonReport::Record("meta", "phases", double(spec.phases.size()));

  JsonReport::Record("meta", "shards", double(shards));
  EngineOptions engine_options = ServingEngineOptions(shards);
  std::filesystem::path wal_dir;
  if (!durability_policy.empty() && durability_policy != "off") {
    auto policy = kaskade::durability::ParseFsyncPolicy(durability_policy);
    if (!policy.ok()) Die("--durability", policy.status().ToString());
    wal_dir = std::filesystem::temp_directory_path() /
              ("bench_serving_wal_" + std::to_string(::getpid()));
    std::filesystem::remove_all(wal_dir);
    engine_options.durability.dir = wal_dir.string();
    engine_options.durability.fsync_policy = policy.value();
    std::printf("durability on: policy %s, WAL dir %s\n",
                kaskade::durability::FsyncPolicyName(policy.value()),
                wal_dir.string().c_str());
  }
  Engine engine(std::move(graph), engine_options);
  if (engine_options.durability.enabled() &&
      !engine.durability_error().ok()) {
    Die("durability init", engine.durability_error().ToString());
  }
  GeneratorProfile profile = OrDie(
      GeneratorProfile::ForDataset(spec.dataset, engine.base_graph()),
      "generator profile");
  WorkloadRunner runner(&engine, std::move(profile));

  PrintHeader("serving run");
  RunResult run = OrDie(runner.Run(spec), "workload run");

  bool failed = false;
  for (const PhaseResult& phase : run.phases) {
    PrintPhaseTable(phase);
    RecordPhase(phase);
    if (!phase.first_error.ok()) {
      std::fprintf(stderr, "phase %s: first error: %s\n", phase.name.c_str(),
                   phase.first_error.ToString().c_str());
      failed = true;
    }
    if (phase.metrics.total_attempted() == 0) {
      std::fprintf(stderr, "phase %s: empty histogram (no ops ran)\n",
                   phase.name.c_str());
      failed = true;
    }
  }
  // The smoke spec's batch-heavy phase must exercise cross-query
  // fusion: generated batches repeat query templates with different
  // constants, so shape groups are guaranteed at batch_size 16. A zero
  // here means the fusion path silently stopped engaging.
  if (smoke) {
    size_t fused_groups = 0;
    for (const PhaseResult& phase : run.phases) {
      fused_groups += phase.after.fused_groups - phase.before.fused_groups;
    }
    if (fused_groups == 0) {
      std::fprintf(stderr, "smoke run fused no batch groups\n");
      failed = true;
    }
    // The overload phase runs more client threads than the admission
    // gate admits at an arrival rate far past capacity, so degradation
    // MUST engage: zero shed + zero timeouts means the gate or the
    // deadline path silently stopped working. Genuine errors are still
    // forbidden — degradation is shed/timeout, never a failure.
    if (run.total_shed() + run.total_timed_out() == 0) {
      std::fprintf(stderr,
                   "smoke overload phase neither shed nor timed out any op — "
                   "the admission gate / deadline path did not engage\n");
      failed = true;
    }
  }

  std::printf("\ntotal: %" PRIu64 " ops, %" PRIu64 " failed, %" PRIu64
              " shed, %" PRIu64 " timed out\n",
              run.total_attempted(), run.total_failed(), run.total_shed(),
              run.total_timed_out());
  JsonReport::Record("total", "ops_attempted", double(run.total_attempted()));
  JsonReport::Record("total", "ops_failed", double(run.total_failed()));
  JsonReport::Record("total", "ops_shed", double(run.total_shed()));
  JsonReport::Record("total", "ops_timed_out", double(run.total_timed_out()));
  if (shards > 1) {
    // Sharded-run proof: per-shard snapshot writers actually engaged,
    // and how much of the patch work the segment store shared vs copied.
    const auto telemetry = engine.TelemetrySnapshot();
    uint64_t writer_acqs = 0;
    for (uint64_t a : telemetry.shard_writer_acquisitions) writer_acqs += a;
    std::printf("shards: %zu, writer acquisitions %" PRIu64
                ", segments copied %" PRIu64 " / shared %" PRIu64 "\n",
                shards, writer_acqs, telemetry.patch_segments_copied,
                telemetry.patch_segments_shared);
    JsonReport::Record("sharding", "writer_acquisitions",
                       double(writer_acqs));
    JsonReport::Record("sharding", "patch_segments_copied",
                       double(telemetry.patch_segments_copied));
    JsonReport::Record("sharding", "patch_segments_shared",
                       double(telemetry.patch_segments_shared));
  }

  if (engine_options.durability.enabled()) {
    // WAL overhead of the whole run: how many records and fsyncs the
    // mutation traffic cost under this policy. Policy is encoded as its
    // enum index (0=none, 1=batch, 2=every_write) — the JSON schema is
    // numbers-only.
    const auto telemetry = engine.TelemetrySnapshot();
    std::printf("durability: %" PRIu64 " WAL appends, %" PRIu64 " bytes, "
                "%" PRIu64 " fsyncs, %" PRIu64 " group-commit batches, "
                "%zu checkpoints\n",
                telemetry.wal_appends, telemetry.wal_bytes,
                telemetry.wal_fsyncs, telemetry.group_commit_batches,
                telemetry.checkpoints_written);
    JsonReport::Record(
        "durability", "fsync_policy",
        double(static_cast<int>(engine_options.durability.fsync_policy)));
    JsonReport::Record("durability", "wal_appends",
                       double(telemetry.wal_appends));
    JsonReport::Record("durability", "wal_bytes", double(telemetry.wal_bytes));
    JsonReport::Record("durability", "wal_fsyncs",
                       double(telemetry.wal_fsyncs));
    JsonReport::Record("durability", "group_commit_batches",
                       double(telemetry.group_commit_batches));
    JsonReport::Record("durability", "checkpoints_written",
                       double(telemetry.checkpoints_written));
  }

  int json_exit = JsonReport::Finish();
  if (!wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
  if (failed || run.total_failed() > 0) return 1;
  return json_exit;
}
