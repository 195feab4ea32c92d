#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/cost_model.h"
#include "durability/checkpoint.h"
#include "graph/serialization.h"
#include "query/fused_runner.h"
#include "query/parser.h"

namespace kaskade::core {

namespace {

PlannerOptions MakePlannerOptions(const EngineOptions& options) {
  PlannerOptions planner = options.planner;
  // Plan choice must cost queries exactly as view selection did, or the
  // engine would select views it then refuses to use.
  planner.eval_cost = options.selector.cost.eval;
  return planner;
}

AdvisorOptions MakeAdvisorOptions(const EngineOptions& options) {
  AdvisorOptions advisor = options.advisor;
  // Advice must select views under the same budget and cost model as
  // offline analysis and plan choice.
  advisor.selector = options.selector;
  return advisor;
}

// Rewritten plans execute against the view's own graph, whose vertex
// ids are view-local (allocated first-touch during materialization).
// The engine's contract is that a rewritten plan is equivalent to the
// raw plan on the base graph, so every vertex-reference cell is mapped
// back through the view's lineage, in place, before the table is
// returned. Mapping happens strictly after execution: property reads
// inside the executor need the view-local ids.
void MapViewTableToBase(const MaterializedView& view, query::Table* table) {
  const std::vector<graph::VertexId>& to_base = view.view_to_base;
  table->MapVertexIds([&](int64_t v) {
    return v >= 0 && static_cast<size_t>(v) < to_base.size()
               ? static_cast<int64_t>(to_base[v])
               : v;
  });
}

}  // namespace

std::unique_lock<std::shared_mutex> Engine::LockWriter() {
  std::lock_guard<std::mutex> turn(writer_turn_);
  return std::unique_lock<std::shared_mutex>(mu_);
}

void Engine::AwaitWriters() { std::lock_guard<std::mutex> turn(writer_turn_); }

Engine::Engine(graph::PropertyGraph base_graph, EngineOptions options)
    : Engine(std::move(base_graph), std::move(options), std::nullopt) {}

Engine::Engine(graph::PropertyGraph base_graph, EngineOptions options,
               std::optional<DurableBootstrap> bootstrap)
    : base_(std::move(base_graph)),
      options_(options),
      catalog_(&base_, options.shards),
      planner_(MakePlannerOptions(options)) {
  next_auto_advise_at_.store(options_.auto_advise_every_n_ops,
                             std::memory_order_relaxed);
  if (options_.fault_hooks.enabled()) {
    // The catalog owns the snapshot-build and maintainer-apply sites;
    // share the one hook so a test sees every site through one lens.
    catalog_.SetFaultHook(options_.fault_hooks.hook);
  }
  if (options_.durability.enabled()) {
    durability_error_ = InitDurability(bootstrap);
  }
}

Engine::~Engine() {
  // By the caller contract no ExecuteBatch is in flight, so pool threads
  // are parked or finishing one background task; they exit at their
  // next claim.
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& thread : pool_) thread.join();
  // Queued-but-unstarted builds are abandoned; their placeholders are
  // aborted so the catalog is not left with dangling entries. Queued
  // repairs and checkpoints hold no catalog state.
  for (const BackgroundTask& task : background_queue_) {
    if (task.kind == BackgroundTask::Kind::kBuild) {
      (void)catalog_.AbortBuild(task.job.handle);
    }
  }
}

// ---------------------------------------------------------------------------
// Durability: WAL wiring, checkpoints, recovery
// ---------------------------------------------------------------------------

namespace {

/// WAL payload tags: 'D' + serialized GraphDelta (ApplyDelta batches),
/// 'R' + serialized full graph (MutateBaseGraph rebaselines — an
/// arbitrary mutation has no delta form, so the post-mutation graph is
/// logged whole).
constexpr char kWalDelta = 'D';
constexpr char kWalRebaseline = 'R';

Status ApplyWalPayload(graph::PropertyGraph* graph,
                       const std::string& payload) {
  if (payload.empty()) {
    return Status::DataLoss("empty WAL payload");
  }
  switch (payload[0]) {
    case kWalDelta: {
      KASKADE_ASSIGN_OR_RETURN(graph::GraphDelta delta,
                               graph::ParseDelta(payload.substr(1)));
      return graph::ApplyDeltaToGraph(graph, delta).status();
    }
    case kWalRebaseline: {
      KASKADE_ASSIGN_OR_RETURN(*graph,
                               graph::GraphFromString(payload.substr(1)));
      return Status::OK();
    }
    default:
      return Status::DataLoss(std::string("unknown WAL payload tag '") +
                              payload[0] + "'");
  }
}

}  // namespace

Status Engine::InitDurability(std::optional<DurableBootstrap> bootstrap) {
  const DurabilityOptions& d = options_.durability;
  durability::WalOptions wal_options;
  wal_options.fsync_policy = d.fsync_policy;
  wal_options.flush_interval = d.flush_interval;
  wal_options.segment_bytes = d.wal_segment_bytes;
  wal_options.fault_hooks = options_.fault_hooks;

  uint64_t next_lsn;
  if (bootstrap.has_value()) {
    // Recovery path (`Open`): the directory already reflects `base_`;
    // just resume the log where replay left off.
    next_lsn = bootstrap->next_lsn;
  } else {
    // Fresh initialization: this engine's state supersedes whatever the
    // directory holds, at an LSN above everything already there — old
    // checkpoints become stale (and are truncated away below), never
    // ambiguous.
    uint64_t base_lsn = 0;
    std::vector<uint64_t> existing = durability::ListCheckpoints(d.dir);
    if (!existing.empty()) base_lsn = existing.front();
    // Scan (without applying) to find the log's end; this also truncates
    // any torn tail so the re-opened segment ends at a valid record.
    auto scan = durability::WriteAheadLog::Replay(
        d.dir, /*start_lsn=*/~0ull,
        [](uint64_t, const std::string&) { return Status::OK(); });
    if (!scan.ok()) return scan.status();
    base_lsn = std::max(base_lsn, scan->last_lsn);
    KASKADE_RETURN_IF_ERROR(durability::WriteCheckpoint(
        d.dir, base_, {}, base_lsn, options_.fault_hooks));
    // The catalog starts empty, so any view-set sidecar left by an
    // earlier incarnation is stale — supersede it too.
    KASKADE_RETURN_IF_ERROR(durability::WriteViewSet(d.dir, {}));
    next_lsn = base_lsn + 1;
  }

  KASKADE_ASSIGN_OR_RETURN(
      wal_, durability::WriteAheadLog::Open(d.dir, next_lsn, wal_options));
  if (!bootstrap.has_value()) {
    KASKADE_RETURN_IF_ERROR(wal_->TruncateBelow(next_lsn));
  }
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::Open(const std::string& dir,
                                             EngineOptions options,
                                             RecoveryReport* report) {
  options.durability.dir = dir;
  RecoveryReport recovery;

  KASKADE_ASSIGN_OR_RETURN(durability::CheckpointState checkpoint,
                           durability::LoadNewestCheckpoint(dir));
  recovery.checkpoint_lsn = checkpoint.lsn;
  for (std::string& note : checkpoint.skipped_corrupt) {
    recovery.notes.push_back(std::move(note));
  }

  // Redo pass: the WAL tail re-applies acknowledged mutations on top of
  // the checkpoint image, in LSN order. A torn tail is truncated (and
  // noted), never applied.
  graph::PropertyGraph recovered = std::move(checkpoint.graph);
  uint64_t next_expected = checkpoint.lsn + 1;
  KASKADE_ASSIGN_OR_RETURN(
      durability::ReplayReport replayed,
      durability::WriteAheadLog::Replay(
          dir, checkpoint.lsn + 1,
          [&recovered, &next_expected, &checkpoint](
              uint64_t lsn, const std::string& payload) -> Status {
            if (lsn != next_expected) {
              // The log does not connect to this checkpoint — e.g. the
              // newest checkpoint was corrupt, we fell back to an older
              // one, and the records between the two were already
              // truncated away. Refuse before applying anything: a
              // detectable gap must never be silently skipped.
              return Status::DataLoss(
                  "WAL does not connect to checkpoint at lsn " +
                  std::to_string(checkpoint.lsn) +
                  ": first replayable record is lsn " + std::to_string(lsn));
            }
            next_expected = lsn + 1;
            return ApplyWalPayload(&recovered, payload);
          }));
  recovery.records_replayed = replayed.records;
  recovery.last_lsn = std::max(checkpoint.lsn, replayed.last_lsn);
  recovery.truncated_bytes = replayed.truncated_bytes;
  if (!replayed.data_loss_note.empty()) {
    recovery.notes.push_back(replayed.data_loss_note);
  }

  DurableBootstrap bootstrap;
  bootstrap.next_lsn = recovery.last_lsn + 1;
  bootstrap.checkpoint_lsn = checkpoint.lsn;
  std::unique_ptr<Engine> engine(
      new Engine(std::move(recovered), std::move(options), bootstrap));
  KASKADE_RETURN_IF_ERROR(engine->durability_error_);

  // View contents are deliberately not persisted; re-materialize each
  // persisted definition from the recovered base. The `views.cat`
  // sidecar (rewritten on every add/remove) is the authoritative set; a
  // checkpoint's embedded copy covers directories that predate it, and
  // a corrupt sidecar degrades to that copy with a note — view contents
  // are always rebuilt from scratch, so no stale data can leak through.
  std::vector<ViewDefinition> definitions;
  auto sidecar = durability::LoadViewSet(dir);
  if (sidecar.ok()) {
    definitions = std::move(sidecar).value();
  } else if (sidecar.status().code() == StatusCode::kNotFound) {
    definitions = std::move(checkpoint.views);
  } else {
    recovery.notes.push_back("view set sidecar unusable (" +
                             sidecar.status().message() +
                             "); fell back to checkpoint view set");
    definitions = std::move(checkpoint.views);
  }
  for (const ViewDefinition& definition : definitions) {
    KASKADE_RETURN_IF_ERROR(engine->AddMaterializedView(definition));
    ++recovery.views_rematerialized;
  }
  if (report != nullptr) *report = recovery;
  return engine;
}

Status Engine::durability_error() const {
  // Written only during construction; read-only afterwards.
  return durability_error_;
}

Result<durability::WriteAheadLog::AppendToken> Engine::LogMutationLocked(
    std::string payload) {
  if (!durability_error_.ok()) return durability_error_;
  KASKADE_ASSIGN_OR_RETURN(durability::WriteAheadLog::AppendToken token,
                           wal_->Append(payload));
  wal_bytes_since_checkpoint_.fetch_add(payload.size(),
                                        std::memory_order_relaxed);
  return token;
}

Status Engine::FinishMutationDurably(
    durability::WriteAheadLog::AppendToken token) {
  KASKADE_RETURN_IF_ERROR(wal_->WaitDurable(token));
  const uint64_t threshold = options_.durability.checkpoint_wal_bytes;
  if (threshold == 0) return Status::OK();
  // Claim the trigger by swapping the counter to zero, so one crossing
  // schedules one checkpoint. A concurrent append makes the swap fail
  // and retry, so its bytes count toward the next checkpoint instead of
  // being dropped.
  uint64_t pending =
      wal_bytes_since_checkpoint_.load(std::memory_order_relaxed);
  while (pending >= threshold &&
         !wal_bytes_since_checkpoint_.compare_exchange_weak(
             pending, 0, std::memory_order_relaxed)) {
  }
  if (pending < threshold) return Status::OK();
  std::lock_guard<std::mutex> lock(pool_mu_);
  // One queued checkpoint covers every trigger that fires before it runs.
  if (std::none_of(background_queue_.begin(), background_queue_.end(),
                   [](const BackgroundTask& task) {
                     return task.kind == BackgroundTask::Kind::kCheckpoint;
                   })) {
    EnqueueBackgroundLocked({BackgroundTask::Kind::kCheckpoint, {}, {}});
  }
  return Status::OK();
}

Result<uint64_t> Engine::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  KASKADE_RETURN_IF_ERROR(durability_error_);
  // One checkpointer at a time (manual call vs background thread);
  // interleaved truncations would be safe but pointless work.
  std::lock_guard<std::mutex> run(checkpoint_run_mu_);

  graph::PropertyGraph snapshot{graph::GraphSchema{}};
  std::vector<ViewDefinition> definitions;
  uint64_t lsn;
  {
    // Reader lock: writers (and their WAL appends) are excluded, so the
    // graph copy and the LSN agree; readers keep flowing.
    std::shared_lock lock(mu_);
    snapshot = base_;
    lsn = wal_->next_lsn() - 1;
    for (const CatalogEntry* entry : catalog_.Entries()) {
      if (entry->state == ViewState::kDropping) continue;
      definitions.push_back(entry->view.definition);
    }
  }
  // The expensive serialization + fsync runs with no engine lock held.
  KASKADE_RETURN_IF_ERROR(durability::WriteCheckpoint(
      options_.durability.dir, snapshot, definitions, lsn,
      options_.fault_hooks));
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  KASKADE_RETURN_IF_ERROR(wal_->TruncateBelow(lsn + 1));
  return lsn;
}

Status Engine::PersistViewSetLocked() {
  if (wal_ == nullptr) return Status::OK();
  KASKADE_RETURN_IF_ERROR(durability_error_);
  std::vector<ViewDefinition> definitions;
  for (const CatalogEntry* entry : catalog_.Entries()) {
    if (entry->state == ViewState::kDropping) continue;
    definitions.push_back(entry->view.definition);
  }
  return durability::WriteViewSet(options_.durability.dir, definitions);
}

// ---------------------------------------------------------------------------
// Self-healing: quarantined views repaired as delayed builds
// ---------------------------------------------------------------------------

void Engine::ScheduleRepairsLocked() {
  if (!options_.self_heal.enabled) return;
  const SelfHealOptions& heal = options_.self_heal;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(pool_mu_);
  // Forget views that left quarantine some other way (manual reclaim,
  // removal) while no repair was scheduled, so an old give-up cannot
  // block the repair of a later view with the same name.
  std::erase_if(repair_state_, [&](const auto& named) {
    const CatalogEntry* entry = catalog_.Find(named.first);
    return !named.second.scheduled &&
           (entry == nullptr || entry->state != ViewState::kQuarantined);
  });
  for (const CatalogEntry* entry : catalog_.Entries()) {
    if (entry->state != ViewState::kQuarantined) continue;
    RepairState& state = repair_state_[entry->name()];
    if (state.scheduled ||
        (heal.max_attempts > 0 && state.attempts >= heal.max_attempts)) {
      continue;
    }
    // First attempt at once; after n failures wait
    // initial_backoff * 2^(n-1), capped at max_backoff.
    std::chrono::milliseconds backoff{0};
    if (state.attempts > 0) {
      backoff = heal.initial_backoff;
      for (size_t i = 1; i < state.attempts && backoff < heal.max_backoff;
           ++i) {
        backoff *= 2;
      }
      backoff = std::min(backoff, heal.max_backoff);
    }
    state.scheduled = true;
    EnqueueBackgroundLocked({BackgroundTask::Kind::kRepair, now + backoff,
                             BuildJob{kInvalidViewHandle,
                                      entry->view.definition}});
  }
}

void Engine::RunRepair(const ViewDefinition& definition) {
  const std::string name = definition.Name();
  BuildJob job{kInvalidViewHandle, definition};
  {
    std::unique_lock lock = LockWriter();
    const CatalogEntry* entry = catalog_.Find(name);
    if (entry != nullptr && entry->state == ViewState::kQuarantined) {
      // Reclaims the entry in place as a `kBuilding` placeholder.
      Result<ViewHandle> handle = catalog_.BeginBuild(definition);
      if (handle.ok()) job.handle = *handle;
    }
  }
  if (job.handle == kInvalidViewHandle) {
    // The view left quarantine meanwhile (reclaimed or removed).
    std::lock_guard<std::mutex> lock(pool_mu_);
    repair_state_.erase(name);
    return;
  }
  Status built = RunBuildJob(job);
  if (built.ok()) {
    quarantine_repairs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(pool_mu_);
    repair_state_.erase(name);
    return;
  }
  std::unique_lock lock = LockWriter();
  (void)catalog_.Quarantine(job.handle, built);
  {
    std::lock_guard<std::mutex> pool(pool_mu_);
    RepairState& state = repair_state_[name];
    ++state.attempts;
    state.scheduled = false;
  }
  // Counted once the entry is back in quarantine, so a monitor that sees
  // the last failure also sees the view out of service.
  repair_failures_.fetch_add(1, std::memory_order_relaxed);
  ScheduleRepairsLocked();
}

// ---------------------------------------------------------------------------
// Offline analysis + online advice
// ---------------------------------------------------------------------------

Result<SelectionReport> Engine::AnalyzeWorkload(
    const std::vector<std::string>& query_texts) {
  std::vector<WorkloadEntry> workload;
  workload.reserve(query_texts.size());
  for (const std::string& text : query_texts) {
    KASKADE_ASSIGN_OR_RETURN(query::Query q, query::ParseQueryText(text));
    workload.push_back(WorkloadEntry{std::move(q), 1.0});
  }
  AdvicePlan plan;
  {
    std::shared_lock lock(mu_);
    Advisor advisor(&base_, MakeAdvisorOptions(options_));
    KASKADE_ASSIGN_OR_RETURN(plan, advisor.AdviseWorkload(workload, catalog_));
  }
  // The offline analyzer only ever adds views; drops are the online
  // advisor's job.
  plan.drop.clear();
  // Blocking semantics: callers expect the selected views to be
  // queryable on return. Only failures of the builds scheduled *here*
  // are this analysis failing; the handles are reserved before the
  // builds become runnable, so a concurrent TakeBuildError drain can
  // never steal them, and concurrent rounds' errors stay in the slot
  // for their own callers.
  KASKADE_ASSIGN_OR_RETURN(AdviceReport applied,
                           ApplyAdviceImpl(plan, /*reserve_errors=*/true));
  WaitForBuilds();
  Status build_error = TakeBuildErrorForHandles(applied.scheduled_handles);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (ViewHandle handle : applied.scheduled_handles) {
      reserved_error_handles_.erase(handle);
    }
  }
  KASKADE_RETURN_IF_ERROR(build_error);
  return plan.selection;
}

Result<AdvicePlan> Engine::Advise() {
  WorkloadSnapshot snapshot = tracker_.Snapshot();
  std::shared_lock lock(mu_);
  Advisor advisor(&base_, MakeAdvisorOptions(options_));
  return advisor.Advise(snapshot, catalog_);
}

Result<AdviceReport> Engine::ApplyAdvice(const AdvicePlan& plan) {
  return ApplyAdviceImpl(plan, /*reserve_errors=*/false);
}

Result<AdviceReport> Engine::ApplyAdviceImpl(const AdvicePlan& plan,
                                             bool reserve_errors) {
  AdviceReport report;
  std::unique_lock lock = LockWriter();
  for (const std::string& name : plan.drop) {
    Status status = catalog_.Remove(name);
    if (status.ok()) {
      ++report.views_dropped;
    } else if (status.code() != StatusCode::kNotFound &&
               status.code() != StatusCode::kFailedPrecondition) {
      return status;
    }
    // NotFound (already gone) and FailedPrecondition (still building —
    // the next advice round will re-evaluate it) keep advice idempotent.
  }
  for (const ViewDefinition& definition : plan.create) {
    Result<ViewHandle> handle = catalog_.BeginBuild(definition);
    if (!handle.ok()) {
      if (handle.status().code() == StatusCode::kAlreadyExists) continue;
      return handle.status();
    }
    EnqueueBuildLocked(BuildJob{*handle, definition}, reserve_errors);
    ++report.builds_scheduled;
    report.scheduled_handles.push_back(*handle);
  }
  return report;
}

Result<AdviceReport> Engine::AutoAdvise() {
  KASKADE_ASSIGN_OR_RETURN(AdvicePlan plan, Advise());
  Result<AdviceReport> report = ApplyAdvice(plan);
  // Epoch decay: after every self-tuning round, fade what has been seen
  // so the next round weights recent traffic over history. Decaying
  // even when the round proposed nothing is deliberate — a workload
  // that went quiet must still lose weight.
  if (report.ok() && options_.workload_decay < 1.0) {
    tracker_.Decay(options_.workload_decay);
  }
  return report;
}

void Engine::MaybeAutoAdvise() {
  if (options_.auto_advise_every_n_ops == 0) return;
  uint64_t total = tracker_.total_recorded();
  uint64_t threshold = next_auto_advise_at_.load(std::memory_order_relaxed);
  if (total < threshold) return;
  // One winner per crossing: losers see the advanced threshold and
  // return to their queries.
  if (!next_auto_advise_at_.compare_exchange_strong(
          threshold, total + options_.auto_advise_every_n_ops,
          std::memory_order_relaxed)) {
    return;
  }
  Result<AdviceReport> report = AutoAdvise();
  auto_advises_.fetch_add(1, std::memory_order_relaxed);
  if (!report.ok()) {
    // Never surface an advice failure through the query that happened
    // to cross the threshold; monitors read the error counter.
    auto_advise_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

EngineTelemetry Engine::TelemetrySnapshot() const {
  EngineTelemetry t;
  t.catalog_generation = catalog_.generation();
  t.views_ready = catalog_.num_ready();
  t.plan_cache_hits = planner_.cache_hits();
  t.plan_cache_misses = planner_.cache_misses();
  t.stale_plan_fallbacks =
      stale_plan_fallbacks_.load(std::memory_order_relaxed);
  t.snapshot_hits = catalog_.snapshot_hits();
  t.snapshot_patches = catalog_.snapshot_patches();
  t.snapshot_full_builds = catalog_.snapshot_full_builds();
  t.builds_completed = builds_completed_.load(std::memory_order_relaxed);
  t.builds_replayed = builds_replayed_.load(std::memory_order_relaxed);
  t.build_retries = build_retries_.load(std::memory_order_relaxed);
  t.builds_pending = builds_pending();
  t.auto_advises = auto_advises_.load(std::memory_order_relaxed);
  t.auto_advise_errors = auto_advise_errors_.load(std::memory_order_relaxed);
  t.queries_recorded = tracker_.total_recorded();
  t.distinct_queries = tracker_.distinct_queries();
  t.fused_groups = fused_groups_.load(std::memory_order_relaxed);
  t.fused_members = fused_members_.load(std::memory_order_relaxed);
  t.traversal_expansions =
      traversal_expansions_.load(std::memory_order_relaxed);
  t.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  t.queries_timed_out = queries_timed_out_.load(std::memory_order_relaxed);
  t.deadline_checks = deadline_checks_.load(std::memory_order_relaxed);
  t.views_quarantined = catalog_.num_quarantined();
  t.quarantine_events = catalog_.quarantine_events();
  t.snapshot_build_failures = catalog_.snapshot_build_failures();
  t.batch_worker_faults =
      batch_worker_faults_.load(std::memory_order_relaxed);
  t.patch_segments_copied = catalog_.patch_segments_copied();
  t.patch_segments_shared = catalog_.patch_segments_shared();
  t.patch_bytes_copied = catalog_.patch_bytes_copied();
  t.shard_writer_acquisitions = catalog_.shard_writer_acquisitions();
  if (wal_ != nullptr) {
    durability::WalTelemetry wal = wal_->telemetry();
    t.wal_appends = wal.appends;
    t.wal_bytes = wal.bytes;
    t.wal_fsyncs = wal.fsyncs;
    t.group_commit_batches = wal.batches;
  }
  t.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  t.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  t.quarantine_repairs = quarantine_repairs_.load(std::memory_order_relaxed);
  t.repair_failures = repair_failures_.load(std::memory_order_relaxed);
  return t;
}

// ---------------------------------------------------------------------------
// Engine task pool: batch members first, then background tasks
// ---------------------------------------------------------------------------

size_t Engine::BatchWidth() const {
  return options_.batch_workers != 0
             ? options_.batch_workers
             : std::max(1u, std::thread::hardware_concurrency());
}

void Engine::GrowPoolLocked(size_t threads) {
  // The caller of a batch is always one of its workers, so the pool
  // holds one thread fewer than the batch width (and at least one for
  // the background work).
  threads = std::min(threads, std::max<size_t>(1, BatchWidth() - 1));
  // Threads start only when a task needs them, and background work stays
  // on the first: glibc gives each thread a malloc arena that keeps what
  // the thread freed, so build and checkpoint base copies spread across
  // threads would each leave a copy-sized arena resident.
  while (!pool_stop_ && pool_.size() < threads) {
    const bool runs_background = pool_.empty();
    pool_.emplace_back(
        [this, runs_background] { PoolWorker(runs_background); });
  }
}

void Engine::EnqueueBackgroundLocked(BackgroundTask task) {
  background_queue_.push_back(std::move(task));
  GrowPoolLocked(1);
  // All: only the first thread takes background work.
  pool_cv_.notify_all();
}

size_t Engine::BuildsPendingLocked() const {
  return std::count_if(background_queue_.begin(), background_queue_.end(),
                       [](const BackgroundTask& task) {
                         return task.kind == BackgroundTask::Kind::kBuild;
                       }) +
         (background_running_ == BackgroundTask::Kind::kBuild ? 1 : 0);
}

void Engine::PoolWorker(bool runs_background) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  while (!pool_stop_) {
    auto open = std::find_if(
        batch_queue_.begin(), batch_queue_.end(),
        [](const std::shared_ptr<BatchJob>& job) {
          return job->next.load(std::memory_order_relaxed) < job->tasks.size();
        });
    if (open != batch_queue_.end()) {
      std::shared_ptr<BatchJob> job = *open;
      lock.unlock();
      Status fault =
          options_.fault_hooks.Fire(FaultSite::kBatchWorker, "batch worker");
      if (fault.ok()) {
        DrainBatchJob(job.get());
      } else {
        // Abandon the round: the calling thread always drains its own
        // job (`RunBatchTasks` participates), so every task still
        // completes — the batch just loses this thread's parallelism.
        // Yield so a persistently-failing hook cannot starve the caller
        // of the core.
        batch_worker_faults_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
      lock.lock();
      continue;
    }
    if (!runs_background || background_queue_.empty()) {
      pool_cv_.wait(lock);
      continue;
    }
    // Oldest due task first; otherwise sleep until the earliest is due.
    const auto now = std::chrono::steady_clock::now();
    auto due = std::find_if(
        background_queue_.begin(), background_queue_.end(),
        [&](const BackgroundTask& task) { return task.not_before <= now; });
    if (due == background_queue_.end()) {
      pool_cv_.wait_until(
          lock, std::min_element(background_queue_.begin(),
                                 background_queue_.end(),
                                 [](const BackgroundTask& a,
                                    const BackgroundTask& b) {
                                   return a.not_before < b.not_before;
                                 })->not_before);
      continue;
    }
    BackgroundTask task = std::move(*due);
    background_queue_.erase(due);
    background_running_ = task.kind;
    lock.unlock();
    RunBackgroundTask(task);
    lock.lock();
    background_running_.reset();
    pool_done_cv_.notify_all();
  }
}

void Engine::RunBackgroundTask(const BackgroundTask& task) {
  switch (task.kind) {
    case BackgroundTask::Kind::kBuild: {
      Status built = RunBuildJob(task.job);
      if (!built.ok()) FailBuild(task.job, built);
      // The stale pending-delta log (bounded at kMaxPendingDeltas) is
      // reclaimed by the next writer's NoteBaseChangedLocked; taking the
      // exclusive lock here just to clear it early would stall readers.
      return;
    }
    case BackgroundTask::Kind::kRepair:
      RunRepair(task.job.definition);
      return;
    case BackgroundTask::Kind::kCheckpoint:
      if (!Checkpoint().ok()) {
        // The WAL still holds the full history — a failed checkpoint
        // only defers truncation. The next trigger retries.
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
  }
}

void Engine::EnqueueBuildLocked(BuildJob job, bool reserve_errors) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  // Reserve in the same critical section that makes the job runnable:
  // no pool thread can fail the build before the reservation exists.
  if (reserve_errors) reserved_error_handles_.insert(job.handle);
  EnqueueBackgroundLocked({BackgroundTask::Kind::kBuild, {}, std::move(job)});
}

Status Engine::RunBuildJob(const BuildJob& job) {
  // A build that keeps losing the race against writers must still
  // terminate: the final attempt publishes (or rebuilds) while *holding*
  // the writer lock, trading one blocking build for guaranteed progress.
  constexpr int kMaxAttempts = 3;
  const ViewDefinition& definition = job.definition;
  for (int attempt = 0;; ++attempt) {
    uint64_t pinned_version = 0;
    ViewMaintainer::BasePin pin;
    std::optional<graph::PropertyGraph> pinned_base;
    {
      // Pin the base under the reader lock just long enough to copy it:
      // readers run concurrently throughout, and writers only wait out
      // the O(|V|+|E|) copy, never the materialization itself.
      std::shared_lock lock(mu_);
      pinned_version = base_version_;
      pin = ViewMaintainer::PinOf(base_);
      if (options_.build_hooks.during_build) options_.build_hooks.during_build();
      pinned_base.emplace(base_);
    }
    // The expensive part runs with no engine lock held at all; deltas
    // landing meanwhile are replayed at publish below.
    Status materialize_fault =
        options_.fault_hooks.Fire(FaultSite::kMaterialize, definition.Name());
    Result<MaterializedView> built =
        materialize_fault.ok() ? Materialize(*pinned_base, definition)
                               : Result<MaterializedView>(materialize_fault);
    pinned_base.reset();
    if (!built.ok()) return built.status();
    if (options_.build_hooks.before_publish) options_.build_hooks.before_publish();

    std::unique_lock lock = LockWriter();
    Status publish_fault =
        options_.fault_hooks.Fire(FaultSite::kPublish, definition.Name());
    if (!publish_fault.ok()) return publish_fault;
    if (base_version_ == pinned_version) {
      KASKADE_RETURN_IF_ERROR(catalog_.Publish(job.handle, std::move(*built)));
      builds_completed_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // The base moved while we were building. Gather what landed after
    // the pin: if every change is a logged ApplyDelta batch, the view
    // can catch up through the incremental-maintenance path instead of
    // being rebuilt.
    std::vector<graph::EdgeId> removals;
    size_t inserts = 0;
    uint64_t logged = 0;
    for (const PendingDelta& pending : delta_log_) {
      if (pending.base_version <= pinned_version) continue;
      ++logged;
      inserts += pending.delta.edge_inserts;
      removals.insert(removals.end(), pending.delta.edge_removals.begin(),
                      pending.delta.edge_removals.end());
    }
    const bool fully_logged = logged == base_version_ - pinned_version;
    if (fully_logged && ViewMaintainer::SupportsKind(definition.kind) &&
        !PreferRematerialization(base_, definition, inserts,
                                 removals.size())) {
      // Replay: a maintainer pinned at the build position subtracts the
      // removed paths and catches up on inserted edges via its
      // watermark, exactly as if the batches had been reported live.
      ViewMaintainer replayer(&base_, &*built, pin);
      graph::GraphDelta catchup;
      catchup.edge_removals = std::move(removals);
      Result<MaintenanceStats> replayed = replayer.ApplyDelta(catchup);
      if (replayed.ok()) {
        KASKADE_RETURN_IF_ERROR(
            catalog_.Publish(job.handle, std::move(*built)));
        builds_completed_.fetch_add(1, std::memory_order_relaxed);
        builds_replayed_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      // Replay failures (out-of-band state the log missed) fall through
      // to a rebuild.
    }
    build_retries_.fetch_add(1, std::memory_order_relaxed);
    if (attempt + 1 >= kMaxAttempts) {
      KASKADE_ASSIGN_OR_RETURN(MaterializedView fresh,
                               Materialize(base_, definition));
      KASKADE_RETURN_IF_ERROR(catalog_.Publish(job.handle, std::move(fresh)));
      builds_completed_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    // Retry in the background against the newer base.
  }
}

void Engine::FailBuild(const BuildJob& job, const Status& status) {
  {
    // Quarantine, not abort: the name stays reserved with the failure
    // recorded in the entry's health, so monitors can see what broke
    // and a later advice round can reclaim the entry by rebuilding.
    // Queries meanwhile fall back to the base graph.
    std::unique_lock lock = LockWriter();
    (void)catalog_.Quarantine(job.handle, status);
    ScheduleRepairsLocked();
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    // Bound the slot: a fire-and-forget advice loop whose view fails
    // persistently would otherwise grow it one entry per round forever.
    // Evict the oldest *unreserved* entry — a reserved one belongs to a
    // blocking round that is about to collect it (at worst the slot
    // temporarily exceeds the cap by the handful of reserved failures).
    constexpr size_t kMaxBuildErrors = 64;
    if (build_errors_.size() >= kMaxBuildErrors) {
      auto victim = std::find_if(
          build_errors_.begin(), build_errors_.end(),
          [&](const auto& tagged) {
            return reserved_error_handles_.count(tagged.first) == 0;
          });
      if (victim != build_errors_.end()) build_errors_.erase(victim);
    }
    build_errors_.emplace_back(job.handle, status);
  }
}

Status Engine::TakeBuildErrorForHandles(
    const std::vector<ViewHandle>& handles) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  Status first = Status::OK();
  auto removed = std::remove_if(
      build_errors_.begin(), build_errors_.end(), [&](const auto& tagged) {
        if (std::find(handles.begin(), handles.end(), tagged.first) ==
            handles.end()) {
          return false;
        }
        if (first.ok()) first = tagged.second;
        return true;
      });
  build_errors_.erase(removed, build_errors_.end());
  return first;
}

void Engine::WaitForBuilds() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_done_cv_.wait(lock, [&] { return BuildsPendingLocked() == 0; });
}

Status Engine::WaitForBuilds(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  const bool idle = pool_done_cv_.wait_for(
      lock, timeout, [&] { return BuildsPendingLocked() == 0; });
  if (idle) return Status::OK();
  return Status::DeadlineExceeded(
      "background builds still pending after the wait budget (builds "
      "continue; re-wait or poll builds_pending())");
}

size_t Engine::builds_pending() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return BuildsPendingLocked();
}

Status Engine::TakeBuildError() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  // Pop only the oldest unreserved entry: wholesale clearing (or taking
  // a reserved one) would steal a failure a concurrent blocking round
  // is about to collect for its own builds.
  for (auto it = build_errors_.begin(); it != build_errors_.end(); ++it) {
    if (reserved_error_handles_.count(it->first) != 0) continue;
    Status oldest = it->second;
    build_errors_.erase(it);
    return oldest;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

Status Engine::AddMaterializedView(const ViewDefinition& definition) {
  std::unique_lock lock = LockWriter();
  KASKADE_RETURN_IF_ERROR(catalog_.Add(definition).status());
  return PersistViewSetLocked();
}

Status Engine::RemoveView(const std::string& name) {
  std::unique_lock lock = LockWriter();
  KASKADE_RETURN_IF_ERROR(catalog_.Remove(name));
  return PersistViewSetLocked();
}

Status Engine::RefreshViews() {
  std::unique_lock lock = LockWriter();
  return catalog_.RefreshAll();
}

void Engine::NoteBaseChangedLocked(const graph::GraphDelta* delta) {
  // Bound the log under a continuous delta stream: past the cap,
  // dropping entries merely leaves version gaps, which the publish
  // path's fully-logged check turns into a (correct) rebuild.
  constexpr size_t kMaxPendingDeltas = 1024;
  ++base_version_;
  bool builds_in_flight;
  {
    // A running repair has pinned the base like any build and replays
    // the same log at publish.
    std::lock_guard<std::mutex> lock(pool_mu_);
    builds_in_flight =
        BuildsPendingLocked() > 0 ||
        background_running_ == BackgroundTask::Kind::kRepair;
  }
  if (!builds_in_flight || delta_log_.size() >= kMaxPendingDeltas) {
    delta_log_.clear();
    if (!builds_in_flight) return;
  }
  if (delta != nullptr) {
    delta_log_.push_back(
        PendingDelta{base_version_, graph::DeltaFootprint(*delta)});
  }
  // A null delta (MutateBaseGraph) leaves a version gap no log entry
  // covers, which is exactly how in-flight builds learn they must
  // re-materialize rather than replay.
}

Status Engine::MutateBaseGraph(
    const std::function<Status(graph::PropertyGraph*)>& mutation) {
  std::unique_lock lock = LockWriter();
  Status status = mutation(&base_);
  // Even a failed mutation may have partially changed the graph; a
  // spurious generation bump only costs a plan-cache miss.
  catalog_.NoteBaseGraphChanged();
  NoteBaseChangedLocked(nullptr);
  if (wal_ != nullptr) {
    // An arbitrary mutation has no delta form, so the WAL records the
    // post-mutation graph whole (tombstones preserved: later delta
    // records reference this exact id space). Logged even when the
    // mutation failed — it may have partially changed the graph, and
    // recovery must land on what is actually in memory.
    graph::SaveOptions save_options;
    save_options.preserve_tombstones = true;
    auto token = LogMutationLocked(
        kWalRebaseline + graph::GraphToString(base_, save_options));
    if (!token.ok()) return token.status();
    lock.unlock();
    KASKADE_RETURN_IF_ERROR(FinishMutationDurably(token.value()));
  }
  return status;
}

Result<DeltaReport> Engine::ApplyDelta(graph::GraphDelta delta) {
  std::unique_lock lock = LockWriter();
  DeltaReport report;
  report.removals_coalesced = delta.Coalesce();
  KASKADE_ASSIGN_OR_RETURN(graph::AppliedDelta applied,
                           graph::ApplyDeltaToGraph(&base_, delta));
  report.vertices_inserted = applied.new_vertices.size();
  report.edges_inserted = applied.new_edges.size();
  report.edges_removed = applied.removed_edges;
  report.new_vertices = std::move(applied.new_vertices);
  report.new_edges = std::move(applied.new_edges);
  // The graph has changed even if maintenance fails below — in-flight
  // builds must see the new version either way.
  NoteBaseChangedLocked(&delta);
  durability::WriteAheadLog::AppendToken wal_token;
  bool logged = false;
  if (wal_ != nullptr) {
    // Log after the in-memory apply succeeded (so the record describes a
    // real transition) but before maintenance: the base has genuinely
    // changed, so even a maintenance failure below must stay on the log.
    // Still under `mu_`, so LSN order equals apply order.
    KASKADE_ASSIGN_OR_RETURN(
        wal_token, LogMutationLocked(kWalDelta + graph::SerializeDelta(delta)));
    logged = true;
  }
  KASKADE_ASSIGN_OR_RETURN(
      DeltaMaintenanceReport maintained,
      catalog_.ApplyBaseDelta(delta));
  report.views_incremental = maintained.views_incremental;
  report.views_rematerialized = maintained.views_rematerialized;
  report.maintenance = maintained.stats;
  if (maintained.views_quarantined > 0) ScheduleRepairsLocked();
  lock.unlock();
  if (logged) {
    // Durability wait happens outside the engine lock so concurrent
    // writers share one group-commit fsync.
    KASKADE_RETURN_IF_ERROR(FinishMutationDurably(wal_token));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

std::chrono::steady_clock::time_point Engine::EffectiveDeadline(
    const CallOptions& call) const {
  if (call.deadline != std::chrono::steady_clock::time_point{}) {
    return call.deadline;
  }
  if (options_.default_query_deadline.count() > 0) {
    return std::chrono::steady_clock::now() + options_.default_query_deadline;
  }
  return {};
}

Status Engine::AdmitQuery() {
  if (options_.max_concurrent_queries == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(admission_mu_);
  auto slot_free = [&] { return in_flight_ < options_.max_concurrent_queries; };
  if (!slot_free() &&
      (options_.admission_wait_budget.count() <= 0 ||
       !admission_cv_.wait_for(lock, options_.admission_wait_budget,
                               slot_free))) {
    return Status::Unavailable(
        "engine overloaded: admission gate full past the wait budget");
  }
  ++in_flight_;
  return Status::OK();
}

void Engine::ReleaseQuery() {
  if (options_.max_concurrent_queries == 0) return;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --in_flight_;
  }
  admission_cv_.notify_one();
}

Result<ExecutionResult> Engine::RunPlan(
    const Plan& plan, std::chrono::steady_clock::time_point deadline) const {
  const graph::PropertyGraph* target = &base_;
  const CatalogEntry* entry = nullptr;
  std::shared_ptr<const graph::CsrGraph> snapshot;
  // Only attach the CSR snapshot when the catalog is still at the
  // generation the plan was computed against (always true under the
  // reader lock; the check is a tripwire against misuse). The local
  // shared_ptr keeps the snapshot alive for the whole execution.
  const bool generation_current =
      plan.planned_generation == catalog_.generation();
  if (!generation_current) {
    stale_plan_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (plan.view_name.empty()) {
    if (generation_current) snapshot = catalog_.BaseSnapshot();
  } else {
    entry = catalog_.Find(plan.view_name);
    // A non-ready entry is as unusable as a missing one: a stale plan
    // must not silently run against a kBuilding placeholder's empty
    // graph.
    if (entry == nullptr || entry->state != ViewState::kReady) {
      return Status::Internal("cached plan references a missing view '" +
                              plan.view_name + "'");
    }
    target = &entry->view.graph;
    if (generation_current) snapshot = catalog_.SnapshotFor(entry->handle);
  }
  query::ExecutorOptions exec_options = options_.executor;
  exec_options.deadline = deadline;
  // A null snapshot (cold cache with an injected snapshot-build fault)
  // degrades this execution to the legacy backend — slower, still exact.
  query::QueryExecutor executor(target, snapshot.get(), exec_options);
  query::ExecutionTiming timing;
  Result<query::Table> table = executor.Execute(*plan.executed_ast, &timing);
  // Count clock tests even for failed (expired) executions — those are
  // exactly the ones the overload telemetry is about.
  deadline_checks_.fetch_add(timing.deadline_checks,
                             std::memory_order_relaxed);
  if (!table.ok()) return table.status();
  if (entry != nullptr) MapViewTableToBase(entry->view, &*table);
  ExecutionResult result;
  result.table = std::move(*table);
  result.used_view = !plan.view_name.empty();
  result.view_name = plan.view_name;
  result.executed_query = plan.executed_query;
  result.estimated_cost = plan.estimated_cost;
  result.latency_us = timing.elapsed_us;
  result.expansions = timing.expansions;
  return result;
}

Result<ExecutionResult> Engine::ExecutePlannedLocked(
    const Plan& plan, std::chrono::steady_clock::time_point deadline) {
  Result<ExecutionResult> result = RunPlan(plan, deadline);
  if (result.ok()) {
    traversal_expansions_.fetch_add(result->expansions,
                                    std::memory_order_relaxed);
    tracker_.Record(plan.template_key, plan.canonical_query,
                    result->latency_us, plan.estimated_cost, result->used_view,
                    result->view_name, /*fused=*/false);
  }
  return result;
}

Result<ExecutionResult> Engine::ExecuteAdmitted(
    const CallOptions& call, const std::function<Result<Plan>()>& plan_query) {
  Status admitted = AdmitQuery();
  if (!admitted.ok()) {
    queries_shed_.fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }
  Result<ExecutionResult> result = Status::Internal("unreachable");
  {
    AwaitWriters();
    std::shared_lock lock(mu_);
    const std::chrono::steady_clock::time_point deadline =
        EffectiveDeadline(call);
    Result<Plan> plan = plan_query();
    result = plan.ok() ? ExecutePlannedLocked(*plan, deadline)
                       : Result<ExecutionResult>(plan.status());
  }
  ReleaseQuery();
  if (!result.ok() &&
      result.status().code() == StatusCode::kDeadlineExceeded) {
    queries_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  // Outside the reader lock: a triggered advice round takes the writer
  // lock for its drop/schedule step and would self-deadlock under it.
  MaybeAutoAdvise();
  return result;
}

Result<ExecutionResult> Engine::Execute(const std::string& query_text,
                                        const CallOptions& call) {
  return ExecuteAdmitted(
      call, [&] { return planner_.PlanFor(query_text, base_, catalog_); });
}

Result<ExecutionResult> Engine::Execute(const query::Query& query,
                                        const CallOptions& call) {
  // Planned from the AST as given; both overloads share one template
  // key, so they share plan-cache and workload-tracker entries.
  return ExecuteAdmitted(call, [&] {
    return planner_.PlanFor(query.Clone(), base_, catalog_);
  });
}

void Engine::RunFusedGroupLocked(
    const std::vector<std::optional<Plan>>& plans,
    const std::vector<size_t>& indices,
    std::chrono::steady_clock::time_point deadline,
    std::vector<std::optional<Result<ExecutionResult>>>* slots) {
  const Plan& lead = *plans[indices.front()];
  auto run_solo = [&] {
    for (size_t i : indices) {
      (*slots)[i].emplace(ExecutePlannedLocked(*plans[i], deadline));
    }
  };
  // Grouping happened under the same reader hold that planned the
  // batch, so the generation cannot have moved; the check is a tripwire
  // against misuse, exactly as in RunPlan.
  if (lead.planned_generation != catalog_.generation()) {
    run_solo();
    return;
  }
  const graph::PropertyGraph* target = &base_;
  const CatalogEntry* entry = nullptr;
  std::shared_ptr<const graph::CsrGraph> snapshot;
  if (lead.view_name.empty()) {
    snapshot = catalog_.BaseSnapshot();
  } else {
    entry = catalog_.Find(lead.view_name);
    if (entry == nullptr || entry->state != ViewState::kReady) {
      Status missing = Status::Internal(
          "cached plan references a missing view '" + lead.view_name + "'");
      for (size_t i : indices) (*slots)[i].emplace(missing);
      return;
    }
    target = &entry->view.graph;
    snapshot = catalog_.SnapshotFor(entry->handle);
  }
  if (snapshot == nullptr) {
    // Fusion shares a CSR traversal; without a snapshot there is
    // nothing to share.
    run_solo();
    return;
  }

  std::vector<const query::MatchQuery*> members;
  members.reserve(indices.size());
  for (size_t i : indices) members.push_back(plans[i]->match_ast.get());
  query::ExecutorOptions exec_options = options_.executor;
  exec_options.deadline = deadline;
  query::FusedGroupStats stats;
  std::vector<Result<query::Table>> tables = query::ExecuteFusedMatch(
      *target, *snapshot, members, exec_options, &stats);
  deadline_checks_.fetch_add(stats.deadline_checks,
                             std::memory_order_relaxed);

  fused_groups_.fetch_add(1, std::memory_order_relaxed);
  fused_members_.fetch_add(indices.size(), std::memory_order_relaxed);
  traversal_expansions_.fetch_add(stats.expansions,
                                  std::memory_order_relaxed);
  const double per_member_us =
      stats.elapsed_us / static_cast<double>(indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    const size_t slot = indices[j];
    const Plan& plan = *plans[slot];
    if (!tables[j].ok()) {
      (*slots)[slot].emplace(tables[j].status());
      continue;
    }
    ExecutionResult result;
    result.table = std::move(*tables[j]);
    if (entry != nullptr) MapViewTableToBase(entry->view, &result.table);
    result.used_view = !plan.view_name.empty();
    result.view_name = plan.view_name;
    result.executed_query = plan.executed_query;
    result.estimated_cost = plan.estimated_cost;
    result.latency_us = per_member_us;
    result.expansions = stats.expansions;
    result.fused = true;
    tracker_.Record(plan.template_key, plan.canonical_query, per_member_us,
                    plan.estimated_cost, result.used_view, result.view_name,
                    /*fused=*/true);
    (*slots)[slot].emplace(std::move(result));
  }
}

void Engine::DrainBatchJob(BatchJob* job) {
  const size_t total = job->tasks.size();
  while (true) {
    size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) return;
    job->tasks[i]();
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      // Lock-then-notify so the owner cannot check the predicate and
      // block between our increment and the notification.
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_done_cv_.notify_all();
    }
  }
}

void Engine::RunBatchTasks(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const size_t helpers = std::min(BatchWidth(), tasks.size()) - 1;
  if (helpers == 0) {
    for (std::function<void()>& task : tasks) task();
    return;
  }
  auto job = std::make_shared<BatchJob>();
  job->tasks = std::move(tasks);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    batch_queue_.push_back(job);
    GrowPoolLocked(helpers);
  }
  for (size_t h = 0; h < helpers; ++h) pool_cv_.notify_one();
  DrainBatchJob(job.get());
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_done_cv_.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == job->tasks.size();
  });
  batch_queue_.erase(
      std::find(batch_queue_.begin(), batch_queue_.end(), job));
}

size_t Engine::batch_pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_.size();
}

std::vector<Result<ExecutionResult>> Engine::ExecuteBatch(
    const std::vector<std::string>& query_texts,
    const CallOptions& call) {
  std::vector<std::optional<Result<ExecutionResult>>> slots(
      query_texts.size());
  // The batch is one admission unit (its members share one traversal
  // budget and one reader hold; gating members individually could
  // deadlock a batch against its own siblings).
  Status admitted = AdmitQuery();
  if (!admitted.ok()) {
    queries_shed_.fetch_add(query_texts.size(), std::memory_order_relaxed);
    std::vector<Result<ExecutionResult>> rejected;
    rejected.reserve(query_texts.size());
    for (size_t i = 0; i < query_texts.size(); ++i) {
      rejected.push_back(admitted);
    }
    return rejected;
  }
  const std::chrono::steady_clock::time_point deadline =
      EffectiveDeadline(call);
  {
    AwaitWriters();
    std::shared_lock lock(mu_);
    // Phase 1 — plan every text (plan cache + parse). Failures settle
    // their slots here; everything else becomes work below.
    std::vector<std::optional<Plan>> plans(query_texts.size());
    for (size_t i = 0; i < query_texts.size(); ++i) {
      Result<Plan> plan = planner_.PlanFor(query_texts[i], base_, catalog_);
      if (plan.ok()) {
        plans[i].emplace(std::move(*plan));
      } else {
        slots[i].emplace(plan.status());
      }
    }
    // Phase 2 — group fusable plans by (view, shape). All plans were
    // computed under this reader hold, so they share one generation.
    const query::FusionOptions& fusion = options_.executor.fusion;
    std::vector<bool> in_group(query_texts.size(), false);
    std::vector<std::function<void()>> tasks;
    if (fusion.enabled) {
      std::unordered_map<std::string, std::vector<size_t>> shape_groups;
      for (size_t i = 0; i < plans.size(); ++i) {
        if (!plans[i].has_value() || plans[i]->shape_key.empty() ||
            plans[i]->match_ast == nullptr) {
          continue;
        }
        std::string key = plans[i]->view_name;
        key += '\x1f';
        key += plans[i]->shape_key;
        shape_groups[key].push_back(i);
      }
      const size_t min_group = std::max<size_t>(2, fusion.min_group_size);
      for (auto& [key, indices] : shape_groups) {
        if (indices.size() < min_group) continue;
        for (size_t i : indices) in_group[i] = true;
        tasks.push_back(
            [this, &plans, &slots, deadline, group = std::move(indices)] {
              RunFusedGroupLocked(plans, group, deadline, &slots);
            });
      }
    }
    // Phase 3 — everything not fused runs solo, one task per query.
    for (size_t i = 0; i < plans.size(); ++i) {
      if (slots[i].has_value() || in_group[i]) continue;
      tasks.push_back([this, &plans, &slots, deadline, i] {
        slots[i].emplace(ExecutePlannedLocked(*plans[i], deadline));
      });
    }
    RunBatchTasks(std::move(tasks));
  }
  ReleaseQuery();
  // Outside the reader lock (the advice round takes the writer lock).
  MaybeAutoAdvise();

  std::vector<Result<ExecutionResult>> results;
  results.reserve(slots.size());
  for (std::optional<Result<ExecutionResult>>& slot : slots) {
    if (!slot->ok() &&
        slot->status().code() == StatusCode::kDeadlineExceeded) {
      queries_timed_out_.fetch_add(1, std::memory_order_relaxed);
    }
    results.push_back(std::move(slot).value());
  }
  return results;
}

}  // namespace kaskade::core
