/// \file engine.h
/// \brief `Engine`: the end-to-end graph query optimization facade of
/// Fig. 2, composed from the first-class subsystems it coordinates —
/// `ViewCatalog` (registry of materialized views), `Planner` (plan
/// enumeration + costing + plan cache), `WorkloadTracker` (observed
/// workload telemetry), `Advisor` (online view advice), and the query
/// executor.
///
/// Typical use:
///
/// ```cpp
/// kaskade::core::Engine engine(std::move(graph));
/// engine.AnalyzeWorkload({q1_text, q2_text});      // select + materialize
/// auto result = engine.Execute(q1_text);           // rewrite + run
/// std::cout << result->table.ToString();
///
/// // ... after serving traffic for a while (the tracker observed it):
/// auto plan = engine.Advise();          // create/drop advice
/// engine.ApplyAdvice(*plan);            // drops now, builds in background
/// ```
///
/// Concurrency discipline: `Execute` and `ExecuteBatch` are *readers* —
/// any number may run concurrently. `AnalyzeWorkload`, `RefreshViews`,
/// `AddMaterializedView`, `RemoveView`, `ApplyDelta`, `ApplyAdvice`
/// (the drop/schedule step), and `MutateBaseGraph` are *writers* — each
/// runs exclusively, via a `std::shared_mutex`, so readers observe
/// either the pre-delta or the post-delta catalog generation, never a
/// torn view. A waiting writer goes first: queries that arrive while it
/// waits queue behind it, so a steady stream of reads cannot starve
/// writes. The planner's plan cache is keyed by query template and
/// the catalog's plan epoch, which only planner-visible writers move
/// (view changes, statistics refreshes): cached plans survive ordinary
/// base-graph writes and are re-bound to each query's literals.
///
/// View materializations scheduled by `ApplyAdvice` do **not** run under
/// the writer lock: a pool thread pins the base under a brief
/// reader lock (one O(|V|+|E|) graph copy), materializes against the
/// pinned copy with *no engine lock held at all* — readers and writers
/// both keep flowing — then takes one short writer critical section to
/// publish, replaying any `ApplyDelta` batches that landed during the
/// build through the incremental-maintenance path, or re-materializing
/// when the cost model prefers it. The planner only ever sees `kReady`
/// views, so a half-built view is never planned against.
///
/// MATCH execution runs over the catalog's CSR topology snapshots
/// (cached per graph, patched lazily after a mutation);
/// `options.executor.parallelism` additionally seed-
/// partitions each MATCH across worker threads with output identical to
/// the sequential run.
///
/// The engine owns one task pool of up to `max(1, batch_workers - 1)`
/// threads, started as tasks need them and joined on shutdown. Its queue
/// has two priorities: `ExecuteBatch` members first (the calling thread
/// drains its own batch alongside the pool), then background work —
/// advice builds, quarantine repairs and checkpoints — one task at a
/// time on the pool's first thread, each eligible from its not-before
/// time. A repair is a delayed build: it reclaims its quarantined entry
/// in a short writer section and then takes the same lock-free build
/// path as an advice build.
///
/// `ExecuteBatch` returns per-query results in input order; results are
/// identical to calling `Execute` sequentially.
/// Before execution the batch is grouped by *plan shape*: queries whose
/// chosen plans share a canonical MATCH shape (`Plan::shape_key` —
/// identical topology, types, plan order, and WHERE structure; only
/// predicate constants differ) and target (same view, same generation)
/// run as one fused traversal (`query/fused_runner.h`) that pays the
/// shared seed/expansion work once for the whole group.
/// `ExecutorOptions::fusion` gates this; singletons and non-MATCH
/// queries keep the solo path. Fused output is byte-identical to the
/// solo run, per query.

#ifndef KASKADE_CORE_ENGINE_H_
#define KASKADE_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/advisor.h"
#include "core/catalog.h"
#include "core/fault.h"
#include "core/planner.h"
#include "core/view_selector.h"
#include "core/workload_tracker.h"
#include "durability/wal.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "query/executor.h"
#include "query/table.h"

namespace kaskade::core {

/// \brief Instrumentation points on the background build path (used by
/// the concurrency tests to make inherently-racy windows deterministic).
struct BuildHooks {
  /// Runs on the builder thread while it holds the *reader* lock,
  /// immediately before the pinned base-graph copy is taken. Readers
  /// provably progress while this blocks; taking the writer lock from
  /// here deadlocks.
  std::function<void()> during_build;
  /// Runs on the builder thread with no engine lock held, after the
  /// build finished and before the publish critical section. Mutations
  /// applied from here land "during the build" and exercise the
  /// pending-delta replay (or rebuild) path.
  std::function<void()> before_publish;
};

/// \brief Durability configuration. With `dir` set, every `ApplyDelta` /
/// `MutateBaseGraph` is written to a checksummed write-ahead log before
/// it is acknowledged (per `fsync_policy`), checkpoints bound recovery
/// time, and `Engine::Open` reconstructs the engine — base graph plus
/// re-materialized views — after a crash.
struct DurabilityOptions {
  /// Directory for WAL segments and checkpoints. Empty (default) keeps
  /// the engine volatile — no logging, no recovery.
  std::string dir;
  /// When an acknowledged mutation is guaranteed on disk. `kEveryWrite`
  /// loses zero acknowledged mutations on a crash; `kBatch` (group
  /// commit) loses at most the mutations of one unflushed batch; `kNone`
  /// leaves flushing to the OS.
  durability::FsyncPolicy fsync_policy = durability::FsyncPolicy::kBatch;
  /// Group-commit flush cadence (bounds how long a `kBatch` writer
  /// waits for its fsync).
  std::chrono::milliseconds flush_interval{2};
  /// WAL segment rotation threshold.
  uint64_t wal_segment_bytes = 64ull << 20;
  /// Background checkpoint trigger: once this many WAL bytes accumulate
  /// since the last checkpoint, the checkpointer snapshots the base
  /// graph and truncates the log below it. 0 disables the background
  /// checkpointer (manual `Checkpoint()` still works).
  uint64_t checkpoint_wal_bytes = 16ull << 20;

  bool enabled() const { return !dir.empty(); }
};

/// \brief Opt-in self-healing of quarantined views: the engine pool
/// re-materializes `kQuarantined` catalog entries with capped
/// exponential backoff, returning them to service without operator
/// intervention. Off by default — quarantine is deliberately sticky so
/// a persistent fault cannot hide behind silent rebuild loops.
struct SelfHealOptions {
  bool enabled = false;
  /// First retry delay after a view is quarantined; doubles per failed
  /// attempt up to `max_backoff`.
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{1000};
  /// Attempts before the engine gives up on a view (it stays
  /// quarantined for manual reclaim). 0 = retry forever.
  size_t max_attempts = 8;
};

/// \brief What `Engine::Open` found and did while recovering.
struct RecoveryReport {
  /// LSN of the checkpoint recovery started from.
  uint64_t checkpoint_lsn = 0;
  /// WAL records replayed on top of the checkpoint.
  uint64_t records_replayed = 0;
  /// Highest LSN in the recovered state (checkpoint or replayed).
  uint64_t last_lsn = 0;
  /// Views re-materialized from their persisted definitions.
  size_t views_rematerialized = 0;
  /// Bytes removed from a torn/corrupt WAL tail.
  uint64_t truncated_bytes = 0;
  /// Data-loss notes: the torn-tail description and any corrupt
  /// checkpoint files skipped. Empty = clean recovery.
  std::vector<std::string> notes;
};

/// \brief Engine configuration.
struct EngineOptions {
  SelectorOptions selector;
  query::ExecutorOptions executor;
  /// Plan-template cache sizing; `planner.eval_cost` is overridden by
  /// `selector.cost.eval` so plan choice and view selection always cost
  /// queries identically.
  PlannerOptions planner;
  /// Advisor knobs; `advisor.selector` is overridden by `selector` so
  /// offline analysis, online advice, and plan choice share one budget
  /// and cost model.
  AdvisorOptions advisor;
  /// Shard count for the base graph's snapshot pipeline. Vertices
  /// partition across shards on immutable-segment boundaries
  /// (`graph::ShardOfSegment`); each shard owns its slice of the
  /// snapshot store and a writer lock (core/segment_store.h), so
  /// concurrent snapshot refreshes touching disjoint shards do not
  /// serialize. Queries read the assembled snapshot whatever the shard
  /// count: MATCH splits its seeds by `executor.parallelism` alone.
  size_t shards = 1;
  /// Threads an `ExecuteBatch` spreads across, the calling thread
  /// included; 0 = hardware concurrency. The engine task pool holds up
  /// to `max(1, batch_workers - 1)` threads and also runs the background
  /// work (view builds, quarantine repairs, checkpoints).
  size_t batch_workers = 4;
  /// Opt-in self-tuning trigger: when non-zero, the engine runs one
  /// `AutoAdvise` round after every N successful query executions
  /// (tracker-recorded), so deployments adapt without an external
  /// advice loop. The round runs on the query thread that crossed the
  /// threshold, after it released the reader lock; at most one thread
  /// wins each threshold crossing. 0 disables the trigger.
  size_t auto_advise_every_n_ops = 0;
  /// Exponential decay applied to the workload tracker after each
  /// `AutoAdvise` round (triggered or manual): every observation's
  /// counts and latency/cost aggregates are scaled by this factor, so
  /// advice follows workload shifts — a query that stops arriving loses
  /// its weight round over round and its view eventually becomes a drop
  /// candidate, while entries decayed to zero executions are evicted
  /// (freeing stripe capacity for new hot texts). 1.0 (default)
  /// disables decay; must be in [0, 1].
  double workload_decay = 1.0;
  BuildHooks build_hooks;
  /// Default per-query evaluation deadline applied by `Execute` /
  /// `ExecuteBatch` when the call passes none (`CallOptions::deadline`
  /// unset). Measured from call entry. Zero (default) disables — a
  /// query then runs to completion however long it takes. Expiry
  /// surfaces as `kDeadlineExceeded`; see
  /// `query::ExecutorOptions::deadline` for the cancellation contract.
  std::chrono::microseconds default_query_deadline{0};
  /// Admission gate: maximum Execute/ExecuteBatch calls admitted at
  /// once (one ExecuteBatch counts as one unit regardless of batch
  /// size). 0 (default) disables the gate. Arrivals past the limit wait
  /// up to `admission_wait_budget` for a slot, then are shed with
  /// `kUnavailable` — the load-shedding backstop that keeps in-deadline
  /// latency bounded when offered load exceeds capacity.
  size_t max_concurrent_queries = 0;
  /// How long an arrival may wait for an admission slot before being
  /// shed. Zero = shed immediately whenever the gate is full.
  std::chrono::microseconds admission_wait_budget{0};
  /// Fault injection (see core/fault.h): a hook here is fired at every
  /// named site — snapshot build, maintainer apply, materialize,
  /// publish, batch worker, WAL append/fsync, checkpoint write — and its
  /// failures exercise the graceful-degradation paths. Default-
  /// constructed (no hook) costs one branch per site.
  FaultHooks fault_hooks;
  /// Write-ahead logging, checkpoints, and crash recovery. Disabled by
  /// default (`dir` empty).
  DurabilityOptions durability;
  /// Background re-materialization of quarantined views. Off by
  /// default.
  SelfHealOptions self_heal;
};

/// \brief Per-call options for `Execute` / `ExecuteBatch`.
struct CallOptions {
  /// Absolute evaluation deadline for this call. The unset default
  /// means "apply `EngineOptions::default_query_deadline`"; an explicit
  /// value overrides it. For `ExecuteBatch` the deadline covers every
  /// member (they share the arrival time).
  std::chrono::steady_clock::time_point deadline{};
};

/// \brief Point-in-time copy of every cheap engine counter, for
/// monitors and the serving workload harness (which diffs two snapshots
/// around a traffic phase). All fields are gathered from atomics or
/// short internal critical sections — taking a snapshot never blocks
/// behind the engine's writer lock.
struct EngineTelemetry {
  uint64_t catalog_generation = 0;
  size_t views_ready = 0;
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Executions whose plan was bound at an older catalog generation than
  /// the one they ran under, which drops them to the legacy backend.
  /// Always 0 while plans are bound under the reader lock that runs
  /// them; a non-zero value means a mis-stamped plan.
  size_t stale_plan_fallbacks = 0;
  size_t snapshot_hits = 0;
  size_t snapshot_patches = 0;
  size_t snapshot_full_builds = 0;
  size_t builds_completed = 0;
  size_t builds_replayed = 0;
  size_t build_retries = 0;
  size_t builds_pending = 0;
  size_t auto_advises = 0;
  size_t auto_advise_errors = 0;
  uint64_t queries_recorded = 0;
  /// Distinct query templates the workload tracker holds (queries that
  /// differ only in constants count once).
  size_t distinct_queries = 0;
  /// \name Batch cross-query fusion (ExecuteBatch shape groups).
  /// @{
  size_t fused_groups = 0;   ///< Shape groups run as one shared traversal.
  size_t fused_members = 0;  ///< Queries those groups served.
  /// CSR traversal expansions across all executions (solo + fused):
  /// candidate vertices enumerated at seed/expansion steps plus
  /// filter-edge probes. A fused group pays its expansions once where N
  /// solo runs pay them N times, so diffing this around a batch phase
  /// measures what fusion saved.
  uint64_t traversal_expansions = 0;
  /// @}
  /// \name Overload & degradation (deadlines, shedding, quarantine).
  /// @{
  /// Calls rejected by the admission gate with `kUnavailable`
  /// (ExecuteBatch rejections count one per member).
  size_t queries_shed = 0;
  /// Executions that failed with `kDeadlineExceeded`.
  size_t queries_timed_out = 0;
  /// Cooperative deadline clock tests performed inside MATCH
  /// evaluation (epoch-counted; see `ExecutionTiming::deadline_checks`).
  uint64_t deadline_checks = 0;
  /// Views currently out of service (`ViewState::kQuarantined`).
  size_t views_quarantined = 0;
  /// Quarantine transitions since engine construction (monotonic).
  size_t quarantine_events = 0;
  /// CSR snapshot productions failed by an injected fault; each one
  /// degraded that query to the legacy (non-CSR) backend.
  size_t snapshot_build_failures = 0;
  /// Pool threads that abandoned a batch via an injected fault
  /// (the calling thread drained the remaining tasks itself).
  size_t batch_worker_faults = 0;
  /// @}
  /// \name Segmented snapshot patching (immutable-segment CSR).
  /// @{
  /// Immutable CSR segments rebuilt across all snapshot productions
  /// (the cost a patch actually paid) vs shared by refcount with the
  /// previous generation (the cost it avoided). `patch_bytes_copied`
  /// tracking the delta size while shared segments track |V| is the
  /// O(delta) patching claim, observable in production.
  uint64_t patch_segments_copied = 0;
  uint64_t patch_segments_shared = 0;
  uint64_t patch_bytes_copied = 0;
  /// Per-shard base-snapshot writer-lock acquisitions (one entry per
  /// `EngineOptions::shards`).
  std::vector<uint64_t> shard_writer_acquisitions;
  /// @}
  /// \name Durability (all zero for a volatile engine).
  /// @{
  uint64_t wal_appends = 0;         ///< Records written to the log.
  uint64_t wal_bytes = 0;           ///< Log bytes written (framing included).
  uint64_t wal_fsyncs = 0;          ///< fsync(2) calls the log issued.
  uint64_t group_commit_batches = 0;  ///< Group flushes that advanced durability.
  size_t checkpoints_written = 0;
  size_t checkpoint_failures = 0;
  /// @}
  /// \name Self-healing (quarantined-view repairs).
  /// @{
  size_t quarantine_repairs = 0;  ///< Views returned to kReady by a repair.
  size_t repair_failures = 0;     ///< Repair attempts that failed.
  /// @}
};

/// \brief Outcome of one `ApplyDelta` batch.
struct DeltaReport {
  size_t vertices_inserted = 0;
  size_t edges_inserted = 0;
  size_t edges_removed = 0;
  /// Duplicate removals dropped while coalescing the batch.
  size_t removals_coalesced = 0;
  /// Ids the base graph allocated for the batch's inserts.
  std::vector<graph::VertexId> new_vertices;
  std::vector<graph::EdgeId> new_edges;
  /// How each registered view absorbed the delta.
  size_t views_incremental = 0;
  size_t views_rematerialized = 0;
  MaintenanceStats maintenance;
};

/// \brief Outcome of one `ApplyAdvice` call.
struct AdviceReport {
  size_t views_dropped = 0;
  /// Builds handed to the engine pool (await with `WaitForBuilds`).
  size_t builds_scheduled = 0;
  /// Catalog handles of the scheduled builds, so a caller can collect
  /// exactly *its* builds' outcomes.
  std::vector<ViewHandle> scheduled_handles;
};

/// \brief Outcome of executing a query, with plan provenance.
struct ExecutionResult {
  query::Table table;
  bool used_view = false;
  std::string view_name;       ///< Set when used_view.
  std::string executed_query;  ///< The (possibly rewritten) query text.
  double estimated_cost = 0;
  /// Measured evaluation wall clock (microseconds) — what the workload
  /// tracker records. For a fused batch member this is the group's wall
  /// clock split evenly across members.
  double latency_us = 0;
  /// CSR traversal expansions this execution performed (0 for the
  /// legacy backend); a fused member reports its group's shared count.
  uint64_t expansions = 0;
  /// True when this result came from a fused batch shape group rather
  /// than a solo run. The table itself is identical either way.
  bool fused = false;
};

/// \brief The framework facade. See file comment for the concurrency
/// contract.
class Engine {
 public:
  /// Constructs the engine over `base_graph`. With
  /// `options.durability.dir` set, the directory is (re-)initialized as
  /// this engine's durable state: an initial checkpoint of `base_graph`
  /// is written and the WAL opened after it. Durable-state
  /// initialization failures are sticky (`durability_error()`), and
  /// every subsequent mutation returns them — the engine never silently
  /// runs volatile when durability was requested.
  explicit Engine(graph::PropertyGraph base_graph, EngineOptions options = {});

  /// Recovers an engine from existing durable state in `dir`: loads the
  /// newest valid checkpoint, replays the WAL tail in LSN order
  /// (truncating a torn/corrupt tail rather than propagating garbage),
  /// and re-materializes every persisted view definition. Fails with
  /// `kNotFound` when `dir` holds no checkpoint (construct a fresh
  /// engine instead) and `kDataLoss` when durable state exists but
  /// nothing valid can be loaded. `report` (optional) receives what
  /// recovery found, including data-loss notes.
  static Result<std::unique_ptr<Engine>> Open(const std::string& dir,
                                              EngineOptions options = {},
                                              RecoveryReport* report = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Joins the task pool: the running background task finishes first,
  /// queued builds are aborted and queued repairs and checkpoints are
  /// dropped.
  ~Engine();

  const graph::PropertyGraph& base_graph() const { return base_; }
  /// Catalog introspection. Entry *contents* reached through it are
  /// mutated by writers and by asynchronous background publishes:
  /// dereference entries only while no builds are pending
  /// (`WaitForBuilds`) or from the thread that schedules all writers.
  const ViewCatalog& catalog() const { return catalog_; }
  const Planner& planner() const { return planner_; }
  const WorkloadTracker& workload() const { return tracker_; }

  /// Drops all tracked observations (the lifetime `total_recorded`
  /// counter survives). Observations otherwise accumulate forever, so
  /// an epoch-based deployment calls this after each advice round —
  /// advice then follows what ran *since the last round*, letting the
  /// advisor notice (and eventually drop views for) queries that
  /// stopped arriving. Safe to call concurrently with readers.
  void ResetWorkload() { tracker_.Clear(); }

  /// Workload analyzer (§V-B): selects views for the workload under the
  /// space budget and materializes them. Runs on the advisor path
  /// (creations only — the offline analyzer never drops); blocks until
  /// every scheduled build has published, so views are queryable on
  /// return. Writer (briefly, per drop/schedule and per publish).
  Result<SelectionReport> AnalyzeWorkload(
      const std::vector<std::string>& query_texts);

  /// \name Online advice (adaptive view lifecycle).
  /// @{

  /// Runs the enumerate → score → knapsack pipeline against the
  /// *observed* workload (the tracker's snapshot) and the current
  /// catalog: proposes creations the budget justifies and drops for
  /// materialized views no observed query can use. Does not change
  /// anything. Reader.
  Result<AdvicePlan> Advise();

  /// Carries an advice plan out: drops immediately (short writer
  /// section), schedules each creation on the engine pool and
  /// returns without waiting. Re-applying an already-applied plan is a
  /// no-op (AlreadyExists builds and NotFound drops are skipped).
  Result<AdviceReport> ApplyAdvice(const AdvicePlan& plan);

  /// `Advise` + `ApplyAdvice` in one call — the self-tuning loop a
  /// deployment invokes periodically (or lets
  /// `EngineOptions::auto_advise_every_n_ops` invoke for it). When
  /// `EngineOptions::workload_decay < 1`, the tracker is decayed after
  /// the round so stale observations lose weight epoch over epoch.
  Result<AdviceReport> AutoAdvise();

  /// \name Auto-advise trigger telemetry.
  /// @{
  /// Rounds fired by the `auto_advise_every_n_ops` trigger.
  size_t auto_advises_triggered() const {
    return auto_advises_.load(std::memory_order_relaxed);
  }
  /// Triggered rounds that returned an error (counted, never thrown
  /// onto the query path that happened to cross the threshold).
  size_t auto_advise_errors() const {
    return auto_advise_errors_.load(std::memory_order_relaxed);
  }
  /// @}

  /// One consistent-enough snapshot of every cheap counter (each field
  /// individually atomic; no cross-field atomicity). Safe to call
  /// concurrently with readers, writers, and background builds.
  EngineTelemetry TelemetrySnapshot() const;

  /// Blocks until no advice build is queued or running. Quarantine
  /// repairs are not waited for.
  void WaitForBuilds();

  /// Bounded overload: waits up to `timeout` for the advice builds to
  /// finish. Returns OK when it did, `kDeadlineExceeded` when builds were
  /// still queued or running at expiry (the builds themselves keep
  /// going — only the wait gives up).
  Status WaitForBuilds(std::chrono::microseconds timeout);

  /// Queued + running advice builds (telemetry).
  size_t builds_pending() const;

  /// Removes and returns the oldest recorded background-build failure,
  /// OK when none (call repeatedly to drain). Failures belonging to a
  /// blocking round that reserved them (`AnalyzeWorkload` in flight)
  /// are skipped, never stolen. Builds that fail *quarantine* their
  /// catalog entry: the name stays reserved with the failure recorded
  /// in `CatalogEntry::health`, queries fall back to the base graph,
  /// and a later advice round (or `AddMaterializedView`) reclaims the
  /// entry by rebuilding it.
  Status TakeBuildError();

  /// \name Background-build telemetry.
  /// @{
  /// Builds published (clean, replayed, or rebuilt), repairs included.
  size_t builds_completed() const {
    return builds_completed_.load(std::memory_order_relaxed);
  }
  /// Builds that caught up on mid-build `ApplyDelta` batches through the
  /// incremental-maintenance replay before publishing.
  size_t builds_replayed() const {
    return builds_replayed_.load(std::memory_order_relaxed);
  }
  /// Extra materialization attempts after losing the publish race to a
  /// non-replayable base change.
  size_t build_retries() const {
    return build_retries_.load(std::memory_order_relaxed);
  }
  /// @}
  /// @}

  /// Materializes one view directly (bypasses selection). Writer for
  /// the whole build — `ApplyAdvice` is the non-blocking path.
  Status AddMaterializedView(const ViewDefinition& definition);

  /// Drops a materialized view by name. Writer.
  Status RemoveView(const std::string& name);

  /// Brings every materialized view up to date with the base graph:
  /// incrementally where the view kind supports it, by
  /// re-materialization otherwise. Writer.
  Status RefreshViews();

  /// Applies one mutation batch — vertex/edge inserts plus edge
  /// removals — to the base graph under the writer lock, then routes the
  /// delta to every registered view (incrementally where the maintainer
  /// and cost model allow, re-materializing otherwise). The catalog
  /// generation is bumped exactly once per batch; cached plans survive
  /// unless the batch drifted statistics past their refresh threshold.
  /// Views are exact when this returns; no `RefreshViews` needed. While
  /// background builds are in flight the batch is also logged so
  /// just-built views can replay it at publish time. Writer.
  Result<DeltaReport> ApplyDelta(graph::GraphDelta delta);

  /// Escape hatch: applies an arbitrary `mutation` to the base graph
  /// under the writer lock and bumps the catalog generation (cached
  /// plans survive unless the base statistics drifted past their
  /// refresh threshold). Call `RefreshViews` afterwards; for
  /// appended edges the views catch up incrementally, while mutations
  /// that *remove* edges force the affected views to re-materialize
  /// (`ApplyDelta` is the efficient path for deletions). In-flight
  /// background builds cannot replay an arbitrary mutation and will
  /// re-materialize before publishing. Writer.
  Status MutateBaseGraph(
      const std::function<Status(graph::PropertyGraph*)>& mutation);

  /// Query rewriter + execution (§V-C): evaluates `query_text` via the
  /// cheapest available plan (raw graph or one materialized view),
  /// consulting the planner's template-keyed plan cache. Successful
  /// executions are recorded with the workload tracker under the
  /// query's template key. Subject to the admission gate (rejections
  /// return `kUnavailable` without touching the graph) and to the
  /// effective deadline (`call.deadline`, else
  /// `default_query_deadline`), which fails the execution with
  /// `kDeadlineExceeded`. Reader.
  Result<ExecutionResult> Execute(const std::string& query_text,
                                  const CallOptions& call);
  Result<ExecutionResult> Execute(const std::string& query_text) {
    return Execute(query_text, CallOptions{});
  }

  /// As above for a pre-parsed query, planned from the AST as given (no
  /// render-and-reparse). Both overloads share one template key, hence
  /// one plan-cache entry and one tracker entry. Reader.
  Result<ExecutionResult> Execute(const query::Query& query,
                                  const CallOptions& call = {});

  /// Executes a batch of queries and returns results in input order,
  /// identical to sequential `Execute`. The batch is planned up front,
  /// grouped by plan shape (same-shape groups of at least
  /// `ExecutorOptions::fusion.min_group_size` run as one fused
  /// traversal; everything else runs solo), and the resulting tasks are
  /// spread across the engine pool (`batch_workers` wide, the calling
  /// thread included), ahead of any queued background work. Reader —
  /// the caller holds the shared lock for the whole batch; pool threads
  /// run under its hold.
  /// The batch is one admission unit: a gate rejection fills every slot
  /// with `kUnavailable`. The effective deadline covers every member;
  /// members that miss it fail individually with `kDeadlineExceeded`
  /// (never a torn table) while finished members keep their results.
  std::vector<Result<ExecutionResult>> ExecuteBatch(
      const std::vector<std::string>& query_texts,
      const CallOptions& call = {});

  /// \name Plan-cache telemetry, forwarded from the planner.
  /// @{
  size_t plan_cache_hits() const { return planner_.cache_hits(); }
  size_t plan_cache_misses() const { return planner_.cache_misses(); }
  /// See `EngineTelemetry::stale_plan_fallbacks`.
  size_t stale_plan_fallbacks() const {
    return stale_plan_fallbacks_.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Batch-fusion telemetry.
  /// @{
  /// Shape groups `ExecuteBatch` ran as one shared traversal.
  size_t fused_groups() const {
    return fused_groups_.load(std::memory_order_relaxed);
  }
  /// Batch queries served by those groups.
  size_t fused_members() const {
    return fused_members_.load(std::memory_order_relaxed);
  }
  /// CSR traversal expansions across all executions (solo and fused).
  uint64_t traversal_expansions() const {
    return traversal_expansions_.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Overload telemetry.
  /// @{
  /// Calls the admission gate rejected with `kUnavailable`.
  size_t queries_shed() const {
    return queries_shed_.load(std::memory_order_relaxed);
  }
  /// Executions that failed with `kDeadlineExceeded`.
  size_t queries_timed_out() const {
    return queries_timed_out_.load(std::memory_order_relaxed);
  }
  /// Cooperative deadline clock tests inside MATCH evaluation.
  uint64_t deadline_checks() const {
    return deadline_checks_.load(std::memory_order_relaxed);
  }
  /// @}

  /// Threads in the engine task pool. It starts empty and grows as tasks
  /// need threads — one for background work, one per helper a batch
  /// can use — up to `max(1, batch_workers - 1)`; threads persist.
  size_t batch_pool_size() const;

  /// \name Durability.
  /// @{

  /// Writes a checkpoint of the current base graph and view definitions
  /// (consistent as of one LSN, taken under the reader lock), then
  /// truncates WAL segments the checkpoint made redundant. Returns the
  /// checkpoint's LSN. Error when durability is disabled.
  Result<uint64_t> Checkpoint();

  /// The sticky durable-state initialization/IO error (OK when
  /// durability is healthy or disabled).
  Status durability_error() const;

  /// The live WAL, for telemetry and crash harnesses (null when
  /// durability is disabled).
  const durability::WriteAheadLog* wal() const { return wal_.get(); }

  size_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Self-healing telemetry.
  /// @{
  /// Quarantined views a repair returned to service.
  size_t quarantine_repairs() const {
    return quarantine_repairs_.load(std::memory_order_relaxed);
  }
  /// Failed repair attempts.
  size_t repair_failures() const {
    return repair_failures_.load(std::memory_order_relaxed);
  }
  /// @}

 private:
  /// Durable-state positions handed from `Open` to the recovering
  /// constructor, so it resumes the recovered log instead of
  /// re-initializing the directory.
  struct DurableBootstrap {
    uint64_t next_lsn = 1;
    uint64_t checkpoint_lsn = 0;
  };

  Engine(graph::PropertyGraph base_graph, EngineOptions options,
         std::optional<DurableBootstrap> bootstrap);
  /// One scheduled background materialization.
  struct BuildJob {
    ViewHandle handle = kInvalidViewHandle;
    ViewDefinition definition;
  };

  /// Low-priority pool work, run one task at a time once `not_before`
  /// has passed.
  struct BackgroundTask {
    enum class Kind { kBuild, kRepair, kCheckpoint };
    Kind kind = Kind::kBuild;
    std::chrono::steady_clock::time_point not_before{};
    /// kBuild: the reserved placeholder. kRepair: the quarantined view's
    /// definition (no handle until the repair reclaims the entry).
    BuildJob job;
  };

  /// One `ApplyDelta` batch retained while builds are in flight, so a
  /// build pinned before it can replay it at publish time. Holds the
  /// batch's footprint (removal ids + insert counts — insert payloads
  /// are never pinned), captured only while a build is in flight.
  struct PendingDelta {
    /// `base_version_` immediately after the batch applied.
    uint64_t base_version = 0;
    graph::DeltaFootprint delta;
  };

  /// One `ExecuteBatch` call's work queue: independent tasks (fused
  /// groups and singletons) claimed by pool threads and the calling
  /// thread alike. Lives on the queue as a shared_ptr so a pool thread
  /// can outlast the caller's erase.
  struct BatchJob {
    std::vector<std::function<void()>> tasks;
    std::atomic<size_t> next{0};  ///< Next unclaimed task index.
    std::atomic<size_t> done{0};  ///< Completed tasks.
  };

  /// Takes `mu_` exclusively, holding `writer_turn_` while waiting.
  std::unique_lock<std::shared_mutex> LockWriter();
  /// Returns once no writer is waiting for `mu_` ahead of this reader.
  void AwaitWriters();

  /// Executes a previously chosen plan under `deadline` (time_point{} =
  /// none). Caller holds (at least) the reader lock.
  Result<ExecutionResult> RunPlan(
      const Plan& plan, std::chrono::steady_clock::time_point deadline) const;

  /// Runs an already-planned query solo and records the observation on
  /// success. Caller (or the `ExecuteBatch` invocation that spawned this
  /// task) holds the reader lock.
  Result<ExecutionResult> ExecutePlannedLocked(
      const Plan& plan, std::chrono::steady_clock::time_point deadline);

  /// One `Execute` call: admission, then `plan_query` and the solo run
  /// under the reader lock, then the auto-advise trigger.
  Result<ExecutionResult> ExecuteAdmitted(
      const CallOptions& call, const std::function<Result<Plan>()>& plan_query);

  /// Runs one fused shape group (all plans share `shape_key`, view and
  /// generation) and fills each member's slot; falls back to solo
  /// execution when no CSR snapshot is attachable. Reader lock held by
  /// the owning `ExecuteBatch` caller.
  void RunFusedGroupLocked(
      const std::vector<std::optional<Plan>>& plans,
      const std::vector<size_t>& indices,
      std::chrono::steady_clock::time_point deadline,
      std::vector<std::optional<Result<ExecutionResult>>>* slots);

  /// Resolves the call's effective deadline: explicit per-call value,
  /// else entry time + `default_query_deadline`, else none.
  std::chrono::steady_clock::time_point EffectiveDeadline(
      const CallOptions& call) const;

  /// Admission gate: claims an in-flight slot, waiting up to
  /// `admission_wait_budget` when the gate is full. `kUnavailable` on
  /// shed; always OK when the gate is disabled. Every OK claim must be
  /// paired with `ReleaseQuery`.
  Status AdmitQuery();
  void ReleaseQuery();

  /// Spreads `tasks` across up to `batch_workers - 1` pool threads and
  /// the calling thread; returns when all tasks ran. The caller must
  /// hold the reader lock — pool threads take no engine lock for batch
  /// tasks and run under the caller's hold.
  void RunBatchTasks(std::vector<std::function<void()>> tasks);

  /// Claims and runs `job`'s tasks until none remain; notifies
  /// `pool_done_cv_` when the last task of the job completes.
  void DrainBatchJob(BatchJob* job);

  /// `batch_workers`, with 0 resolved to the hardware concurrency.
  size_t BatchWidth() const;

  /// Pool thread: runs open batch jobs first, then (on the one thread
  /// with `runs_background`) due background tasks one at a time, until
  /// stopped.
  void PoolWorker(bool runs_background);

  /// Starts pool threads until the pool holds `threads` of them, capped
  /// at `max(1, batch_workers - 1)`; none once the engine is shutting
  /// down. Caller holds `pool_mu_`.
  void GrowPoolLocked(size_t threads);

  /// Queues `task` and starts the pool's first thread if needed. Caller
  /// holds `pool_mu_`.
  void EnqueueBackgroundLocked(BackgroundTask task);

  /// Queued + running advice builds. Caller holds `pool_mu_`.
  size_t BuildsPendingLocked() const;

  /// Runs one background task on the calling pool thread.
  void RunBackgroundTask(const BackgroundTask& task);

  /// Fires one `AutoAdvise` round when the recorded-execution count
  /// crossed the `auto_advise_every_n_ops` threshold. MUST be called
  /// with no engine lock held (the round takes both lock modes); at
  /// most one caller wins each crossing via CAS on
  /// `next_auto_advise_at_`.
  void MaybeAutoAdvise();

  /// Caller holds the writer lock. Notes a base-graph change for
  /// in-flight builds: bumps `base_version_` and, while builds are in
  /// flight, either logs the applied batch's footprint (replayable) or
  /// just invalidates (out-of-band mutation, passed as null).
  void NoteBaseChangedLocked(const graph::GraphDelta* delta);

  /// `ApplyAdvice` with optional error reservation: when
  /// `reserve_errors` is set, each scheduled handle is reserved (under
  /// `pool_mu_`, before the job is runnable) so a concurrent
  /// `TakeBuildError` drain can never steal this round's failures.
  Result<AdviceReport> ApplyAdviceImpl(const AdvicePlan& plan,
                                       bool reserve_errors);

  /// Schedules `job` on the engine pool, reserving its error handle
  /// first when asked. Caller holds the writer lock.
  void EnqueueBuildLocked(BuildJob job, bool reserve_errors);

  /// Runs one build to completion: copy the base under the reader lock,
  /// materialize with no lock held, publish under the writer lock,
  /// replaying or rebuilding when the base moved mid-build. On failure
  /// the entry is left `kBuilding` for the caller to quarantine.
  Status RunBuildJob(const BuildJob& job);

  /// Records a failed build and quarantines its catalog entry (the
  /// name stays reserved, with the failure in `CatalogEntry::health`).
  void FailBuild(const BuildJob& job, const Status& status);

  /// Removes and returns the first failure belonging to one of
  /// `handles` (OK when none); other rounds' failures stay in the slot
  /// for their own callers.
  Status TakeBuildErrorForHandles(const std::vector<ViewHandle>& handles);

  /// \name Durability internals.
  /// @{

  /// Fresh-directory bootstrap (constructor path): supersedes whatever
  /// the directory holds with a checkpoint of the current base graph at
  /// an LSN above every existing one, then opens the WAL after it.
  Status InitDurability(std::optional<DurableBootstrap> bootstrap);

  /// Appends one WAL record under the writer lock (caller holds `mu_`);
  /// returns the token the post-release durability wait needs.
  Result<durability::WriteAheadLog::AppendToken> LogMutationLocked(
      std::string payload);

  /// After releasing `mu_`: waits out the fsync policy for `token` and
  /// queues a checkpoint task when the WAL-bytes threshold is crossed.
  Status FinishMutationDurably(durability::WriteAheadLog::AppendToken token);

  /// Rewrites the `views.cat` sidecar with the catalog's current
  /// definition set (caller holds `mu_` exclusively). The sidecar is
  /// what makes a view added after the last checkpoint survive a crash.
  Status PersistViewSetLocked();

  /// @}

  /// \name Self-healing internals.
  /// @{

  /// Caller holds the writer lock. Queues a repair for every
  /// quarantined view that has none queued or running and attempts
  /// left, due after its capped exponential backoff. No-op unless
  /// `self_heal.enabled`.
  void ScheduleRepairsLocked();

  /// One repair attempt: reclaims the entry if it is still quarantined,
  /// rebuilds it through `RunBuildJob`, and re-quarantines it (and
  /// reschedules) on failure.
  void RunRepair(const ViewDefinition& definition);

  /// @}

  graph::PropertyGraph base_;
  EngineOptions options_;
  ViewCatalog catalog_;
  Planner planner_;
  WorkloadTracker tracker_;
  /// Readers: Execute/ExecuteBatch and background materializations.
  /// Writers: everything that mutates the catalog or the base graph.
  /// Writers take it through `LockWriter`.
  mutable std::shared_mutex mu_;
  /// Held by a writer while it waits for `mu_`; `Execute` and
  /// `ExecuteBatch` pass through it (`AwaitWriters`) before taking `mu_`
  /// shared. glibc's `std::shared_mutex` admits new readers while a
  /// writer waits, so back-to-back queries could otherwise starve
  /// `ApplyDelta` indefinitely. Only those two entry points wait: other
  /// readers (build pins, checkpoints) can run while a
  /// thread already holds `mu_` shared, and would deadlock behind a
  /// writer that waits for that thread.
  std::mutex writer_turn_;

  /// Monotonic count of base-graph changes (unlike the catalog
  /// generation, catalog-only changes do not move it). Guarded by `mu_`:
  /// written under the writer lock, read under either lock.
  uint64_t base_version_ = 0;
  /// Delta batches applied while builds were in flight, tagged with the
  /// base version they produced. Guarded by `mu_`.
  std::vector<PendingDelta> delta_log_;

  /// \name Engine task pool (guarded by `pool_mu_`). Threads start as
  /// batches and background tasks need them and are joined by the
  /// destructor. Pool threads take no engine lock for batch tasks — the
  /// `ExecuteBatch` caller holds the reader lock for the whole batch.
  /// @{
  mutable std::mutex pool_mu_;
  std::condition_variable pool_cv_;  ///< Pool: work queued, task due, stop.
  /// Waiters: a batch job drained or a background task finished.
  std::condition_variable pool_done_cv_;
  std::deque<std::shared_ptr<BatchJob>> batch_queue_;
  std::deque<BackgroundTask> background_queue_;
  /// Kind of the background task the pool is running, if any.
  std::optional<BackgroundTask::Kind> background_running_;
  bool pool_stop_ = false;
  /// Failures tagged with the failed build's handle, so a blocking
  /// caller collects exactly the failures of the builds *it* scheduled
  /// without stealing (or being confused by) a concurrent round's.
  std::vector<std::pair<ViewHandle, Status>> build_errors_;
  /// Handles whose failures a blocking round will collect itself;
  /// `TakeBuildError` skips them so a concurrent drain cannot steal a
  /// failure `AnalyzeWorkload` is about to report.
  std::set<ViewHandle> reserved_error_handles_;
  /// Per-view repair progress, keyed by view name. An entry whose
  /// repair is not scheduled and whose view left quarantine is pruned
  /// by the next `ScheduleRepairsLocked`.
  struct RepairState {
    size_t attempts = 0;     ///< Failed attempts so far.
    bool scheduled = false;  ///< A repair task is queued or running.
  };
  std::unordered_map<std::string, RepairState> repair_state_;
  /// @}

  std::atomic<size_t> builds_completed_{0};
  std::atomic<size_t> builds_replayed_{0};
  std::atomic<size_t> build_retries_{0};

  std::atomic<size_t> fused_groups_{0};
  std::atomic<size_t> fused_members_{0};
  std::atomic<uint64_t> traversal_expansions_{0};

  /// \name Admission gate (guarded by `admission_mu_`). Kept apart from
  /// `mu_` so a shed decision never waits behind a long writer.
  /// @{
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t in_flight_ = 0;
  /// @}

  std::atomic<size_t> queries_shed_{0};
  std::atomic<size_t> queries_timed_out_{0};
  /// mutable: accumulated by the const `RunPlan` on the reader path.
  mutable std::atomic<uint64_t> deadline_checks_{0};
  mutable std::atomic<size_t> stale_plan_fallbacks_{0};
  std::atomic<size_t> batch_worker_faults_{0};

  /// \name Periodic auto-advise trigger state.
  /// @{
  /// Recorded-execution count at which the next triggered round fires
  /// (0 = trigger disabled). CAS-advanced by the winning thread.
  std::atomic<uint64_t> next_auto_advise_at_{0};
  std::atomic<size_t> auto_advises_{0};
  std::atomic<size_t> auto_advise_errors_{0};
  /// @}

  /// \name Durability state.
  /// @{
  /// Null when durability is disabled. Appended under `mu_` (so LSN
  /// order equals apply order); the durability wait happens after `mu_`
  /// is released so concurrent `kBatch` writers share one fsync.
  std::unique_ptr<durability::WriteAheadLog> wal_;
  /// Sticky: set when durable-state initialization or recovery plumbing
  /// failed; every mutation then refuses rather than silently running
  /// volatile. Guarded by `mu_` at init, read-only afterwards.
  Status durability_error_;
  /// WAL bytes appended since the last checkpoint (trigger counter).
  std::atomic<uint64_t> wal_bytes_since_checkpoint_{0};
  std::atomic<size_t> checkpoints_written_{0};
  std::atomic<size_t> checkpoint_failures_{0};
  /// Serializes Checkpoint() runs (manual + background) so two
  /// checkpointers never interleave their truncations.
  std::mutex checkpoint_run_mu_;
  /// @}

  std::atomic<size_t> quarantine_repairs_{0};
  std::atomic<size_t> repair_failures_{0};

  /// The task pool's threads (guarded by `pool_mu_`). Declared last:
  /// they use every member above, and `~Engine` joins them first.
  std::vector<std::thread> pool_;
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_ENGINE_H_
