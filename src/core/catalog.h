/// \file catalog.h
/// \brief `ViewCatalog`: the thread-safe registry of materialized views
/// (the "view catalog" box of Fig. 2).
///
/// The catalog *owns* each materialized view together with its statistics
/// (used for cost-based plan choice) and its incremental maintainer
/// (where the view kind supports one). Entries live behind stable
/// `ViewHandle` ids and never move in memory — they are held by
/// `std::unique_ptr` — so maintainers and in-flight readers can hold
/// pointers into them without the pointer-stability gymnastics the old
/// monolithic facade needed (a `std::deque` that must never reallocate).
///
/// Every mutation — registering a view, refreshing views, dropping a
/// view, or an announced base-graph change — bumps a monotonic
/// *generation* counter, against which plans are checked before they run.
/// The CSR topology snapshots queries run on come from one
/// `SegmentStore` over the base graph and one per view, each told about
/// every change to its graph under the writer lock.
///
/// The catalog also holds the base graph's statistics beside each
/// view's (the "graph data properties" of §V-A, built once and
/// refreshed after updates), and a second counter, the *plan epoch*,
/// that moves only on changes the planner can see: a view added,
/// reclaimed, published, dropped or quarantined, `RefreshAll`, and any
/// statistics refresh. A plain base delta that leaves every statistic
/// within its drift threshold does not move it, so the `Planner`'s
/// plan cache (keyed by plan epoch) survives write churn.
///
/// Thread-safety: all methods are safe to call concurrently. Reads take a
/// shared lock; mutations take an exclusive lock. `CatalogEntry` pointers
/// returned by accessors stay valid until the entry is dropped, but the
/// *contents* they point to may only be read while the caller prevents
/// concurrent catalog mutations (the `Engine` enforces this with its own
/// reader/writer discipline). Note that with background builds the
/// engine itself is such a mutator: `Publish`/`AbortBuild` land
/// asynchronously, so external introspection (`Entries`/`Find`/`Get`
/// dereferences) while builds are pending must be gated — e.g. by
/// `Engine::WaitForBuilds()` — or externally synchronized against the
/// scheduling thread.

#ifndef KASKADE_CORE_CATALOG_H_
#define KASKADE_CORE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/fault.h"
#include "core/maintenance.h"
#include "core/materializer.h"
#include "core/segment_store.h"
#include "core/view_definition.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "graph/stats.h"

namespace kaskade::core {

/// \brief Stable identifier of a catalog entry. Never reused, never
/// invalidated by other entries coming or going.
using ViewHandle = uint64_t;

inline constexpr ViewHandle kInvalidViewHandle = 0;

/// \brief Lifecycle of a catalog entry.
///
/// `kReady` views are the only ones the planner considers, the only
/// ones maintenance touches, and the only ones queries ever run on.
/// `kBuilding` entries are placeholders registered by `BeginBuild`:
/// they reserve the name (so a duplicate build cannot start) while the
/// actual materialization runs on a background worker *outside* the
/// engine's writer lock; `Publish` swaps the built view in and flips
/// the entry to `kReady` in one short writer critical section.
/// `kDropping` is the transient exit arc of the lifecycle: `Remove`
/// sets it under the writer lock immediately before erasing the entry,
/// so no concurrent reader can observe it — it exists to make the
/// lifecycle explicit (an entry leaves through exactly one arc), not as
/// an observable phase. `kQuarantined` entries are views taken out of
/// service after a failed build or a maintenance pass that could not
/// keep them exact: the name stays reserved (so monitors can see *why*
/// via `CatalogEntry::health` and a later advice round can rebuild it
/// through `BeginBuild`), but the planner never considers the entry, so
/// queries transparently fall back to the base graph or another view —
/// degraded cost, never degraded correctness.
enum class ViewState { kBuilding, kReady, kDropping, kQuarantined };

/// Human-readable state name ("building" / "ready" / "dropping" /
/// "quarantined").
const char* ViewStateName(ViewState state);

/// \brief A materialized view registered with the catalog, with the
/// statistics used for cost-based plan choice and the maintainer that
/// keeps it consistent with the base graph (null when the view kind only
/// supports re-materialization).
struct CatalogEntry {
  ViewHandle handle = kInvalidViewHandle;
  MaterializedView view;
  graph::GraphStats stats;
  /// On the per-delta path `stats` may drift ~10% from the view before
  /// the O(V log V) recompute runs again (plan costing tolerates that);
  /// `RefreshAll` recomputes changed views exactly.
  std::unique_ptr<ViewMaintainer> maintainer;
  /// Lifecycle state; only `kReady` entries are planner-visible. For a
  /// `kBuilding` placeholder `view.graph` is empty and `maintainer` is
  /// null until `Publish`.
  ViewState state = ViewState::kReady;
  /// Why the entry is out of service: OK unless `state` is
  /// `kQuarantined`, in which case it holds the failure that forced the
  /// quarantine (build error, maintenance fault).
  Status health = Status::OK();
  /// CSR snapshots of `view.graph` (one shard). Bound to the graph's
  /// address, which assignments to `view` keep.
  std::unique_ptr<SegmentStore> snapshots;

  std::string name() const { return view.definition.Name(); }
};

/// \brief How `ApplyBaseDelta` brought the catalog up to date.
struct DeltaMaintenanceReport {
  /// Aggregated over every incrementally maintained view.
  MaintenanceStats stats;
  size_t views_incremental = 0;
  size_t views_rematerialized = 0;
  /// Views whose maintenance failed in a way that could not be repaired
  /// by a rebuild: they were quarantined (taken out of planning) and the
  /// rest of the batch proceeded. The base graph and every other view
  /// stay exact.
  size_t views_quarantined = 0;
};

/// \brief Thread-safe registry owning all materialized views.
class ViewCatalog {
 public:
  /// Binds to the base graph the views are materialized from. The graph
  /// must outlive the catalog and must not move (maintainers and the
  /// base snapshot store hold pointers to it). The base graph's
  /// snapshots are partitioned into `shards` per-shard pipelines (see
  /// segment_store.h).
  explicit ViewCatalog(const graph::PropertyGraph* base, size_t shards = 1)
      : base_(base),
        base_stats_(graph::GraphStats::Compute(*base)),
        base_snapshots_(base, shards) {}

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Materializes `definition` over the base graph and registers it
  /// ready. Attaches an incremental maintainer when the view kind
  /// supports one. Fails with AlreadyExists when a view of the same name
  /// is registered (in any state).
  Result<ViewHandle> Add(const ViewDefinition& definition);

  /// \name Non-blocking registration (background materialization).
  ///
  /// `BeginBuild` registers a `kBuilding` placeholder — reserving the
  /// name, returning the handle the builder will publish under — without
  /// materializing anything and *without* bumping the generation or the
  /// plan epoch (nothing planner-visible changed). The builder
  /// materializes off the writer lock, then calls `Publish` to swap the
  /// finished view in, attach its maintainer, refresh statistics, flip
  /// the entry to `kReady`, and bump both counters — one short writer
  /// critical section regardless of how long the build took.
  /// `AbortBuild` discards the placeholder when the build fails.
  /// @{
  Result<ViewHandle> BeginBuild(const ViewDefinition& definition);
  Status Publish(ViewHandle handle, MaterializedView built);
  Status AbortBuild(ViewHandle handle);
  /// @}

  /// Takes the entry out of service after a failure that left it unable
  /// to serve exact results: flips it to `kQuarantined`, records
  /// `reason` in `CatalogEntry::health`, detaches its maintainer, drops
  /// its cached snapshot, and bumps the generation and the plan epoch so
  /// cached plans that referenced the view stop matching. The name stays
  /// reserved; `BeginBuild`/`Add` with the same name reclaim the entry
  /// (rebuild), and `Remove` drops it. Accepts `kReady` and `kBuilding`
  /// entries; NotFound when the handle is not registered.
  Status Quarantine(ViewHandle handle, Status reason);

  /// Drops the view named `name` (marking it `kDropping` on the way
  /// out). Plans cached against older plan epochs stop matching;
  /// in-flight readers of the entry must be excluded by the caller (the
  /// Engine's writer lock does this). Dropping a `kBuilding` entry is
  /// refused (abort the build instead); dropping a `kQuarantined` entry
  /// is allowed — that is how an operator retires a broken view.
  Status Remove(const std::string& name);

  /// Brings every `kReady` view up to date with the base graph:
  /// incrementally where a maintainer is attached, by re-materialization
  /// otherwise — including when the base graph saw removals the
  /// maintainer was never told about (stale views are rebuilt, never
  /// served). Refreshes per-view statistics. `kBuilding` placeholders
  /// are skipped — their builder catches up at publish time.
  Status RefreshAll();

  /// Routes one already-applied base-graph delta (coalesced; removals in
  /// application order) to every `kReady` view: incrementally via its
  /// maintainer when attached and the cost model predicts the
  /// incremental pass beats a from-scratch build, by re-materialization
  /// otherwise. `kBuilding` placeholders are skipped (the engine's
  /// pending-delta log replays the batch onto them at publish time).
  /// Bumps the generation exactly once for the whole batch. Base and
  /// view statistics are recomputed only where the batch drifted them
  /// past the staleness threshold, and only such a refresh (or a view
  /// rematerialized or quarantined) moves the plan epoch.
  ///
  /// The base snapshot store is told the batch's removals, and each
  /// incrementally maintained view's store the view edges its
  /// maintainer removed, so the next `BaseSnapshot`/`SnapshotFor`
  /// patches only the rows the batch touched instead of rebuilding in
  /// O(|V| + |E|). A rematerialized view's next snapshot is a full
  /// build.
  Result<DeltaMaintenanceReport> ApplyBaseDelta(const graph::GraphDelta& delta);

  /// Announces an out-of-band base-graph change (e.g. appended edges):
  /// bumps the generation and refreshes the base statistics when the
  /// change drifted them past the staleness threshold. No removal list
  /// describes an arbitrary mutation, so the next `BaseSnapshot` is a
  /// full build.
  void NoteBaseGraphChanged();

  /// Monotonic counter: strictly increases on every catalog mutation or
  /// announced base-graph change. Starts at 1.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Monotonic counter of planner-visible changes: view add, reclaim,
  /// `Publish`, drop, quarantine, `RefreshAll`, and every base or view
  /// statistics refresh. Never moves on a base delta that leaves the
  /// statistics within their drift threshold. Starts at 1.
  uint64_t plan_epoch() const {
    return plan_epoch_.load(std::memory_order_acquire);
  }

  /// Base-graph statistics for plan costing. Computed at construction
  /// and recomputed under the writer lock by `ApplyBaseDelta` and
  /// `NoteBaseGraphChanged` once live counts drift past the staleness
  /// threshold (10%, with a floor of 32) or a vertex type appears. Same
  /// read contract as entry contents: the caller prevents concurrent
  /// catalog mutation.
  const graph::GraphStats& base_stats() const { return base_stats_; }

  /// Property keys whose WHERE constants decide whether some `kReady`
  /// view can serve a query: the filter keys of predicate summarizers.
  /// Every other constant is irrelevant to plan choice. Recomputed with
  /// each plan-epoch move; same read contract as `base_stats`.
  const std::vector<std::string>& plan_literal_keys() const {
    return plan_literal_keys_;
  }

  /// Number of registered entries, in any state.
  size_t size() const;
  bool empty() const { return size() == 0; }
  /// Number of `kReady` (planner-visible) entries.
  size_t num_ready() const;
  /// Number of `kQuarantined` (out-of-service) entries.
  size_t num_quarantined() const;
  /// Total quarantine transitions since construction (monotonic — a
  /// reclaimed-and-requarantined view counts each time).
  size_t quarantine_events() const {
    return quarantine_events_.load(std::memory_order_relaxed);
  }

  /// Entry lookup; null when absent. Returns entries in any state — the
  /// planner must skip non-`kReady` ones. See class comment for pointer
  /// validity rules.
  const CatalogEntry* Find(const std::string& name) const;
  const CatalogEntry* Get(ViewHandle handle) const;

  /// Snapshot of all registered entries (any state), in registration
  /// order.
  std::vector<const CatalogEntry*> Entries() const;

  /// \name CSR topology snapshots for the query hot path.
  ///
  /// One frozen `CsrGraph` per materialized view *and* the base graph,
  /// produced lazily on first request by that graph's `SegmentStore`
  /// and cached until the graph next changes. The returned `shared_ptr`
  /// owns its segments, so a reader may keep using a snapshot even after
  /// it has been superseded.
  ///
  /// A change does not imply an O(|V| + |E|) rebuild: every writer site
  /// tells the store what it changed (`ApplyBaseDelta`, `RefreshAll`'s
  /// catch-up), and the next request patches only the segments holding
  /// touched vertices, sharing the rest with the previous snapshot.
  /// Changes no removal list describes (`NoteBaseGraphChanged`, a view
  /// rebuilt, published, reclaimed or quarantined) make the next request
  /// a full build. Telemetry splits the two:
  /// `snapshot_builds() == snapshot_patches() + snapshot_full_builds()`.
  ///
  /// Callers must hold off concurrent mutation of the underlying graphs
  /// for the duration of the call (the Engine's reader lock does this);
  /// concurrent readers are safe. Refreshes take only the store's
  /// per-shard locks, so a production never stalls hits on other
  /// graphs, and concurrent requests for one graph share one result.
  /// @{

  /// Snapshot of the base graph.
  std::shared_ptr<const graph::CsrGraph> BaseSnapshot() const;

  /// Snapshot of the view `handle`'s graph; null when the handle is not
  /// registered.
  std::shared_ptr<const graph::CsrGraph> SnapshotFor(ViewHandle handle) const;

  /// \name Snapshot-cache telemetry (for tests and operations).
  /// Snapshots produced on a cache miss, by either path.
  size_t snapshot_builds() const {
    return snapshot_builds_.load(std::memory_order_relaxed);
  }
  size_t snapshot_hits() const {
    return snapshot_hits_.load(std::memory_order_relaxed);
  }
  /// Snapshots that reused segments of the previous one.
  size_t snapshot_patches() const {
    return snapshot_patches_.load(std::memory_order_relaxed);
  }
  /// Snapshots built from scratch (first build, rebuilt or published
  /// view, out-of-band base mutation).
  size_t snapshot_full_builds() const {
    return snapshot_full_builds_.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Segment-level patch telemetry.
  ///
  /// Totals over every snapshot production, base and views (monotonic:
  /// dropping a view keeps what its snapshots cost): immutable CSR
  /// segments written vs shared by refcount with the previous snapshot,
  /// and the bytes the written ones cost. `patch_bytes_copied` growing
  /// with the delta size while `patch_segments_shared` tracks
  /// |V|/segment_size is the O(delta) patching claim, measurable in
  /// production.
  /// @{
  uint64_t patch_segments_copied() const {
    return patch_segments_copied_.load(std::memory_order_relaxed);
  }
  uint64_t patch_segments_shared() const {
    return patch_segments_shared_.load(std::memory_order_relaxed);
  }
  uint64_t patch_bytes_copied() const {
    return patch_bytes_copied_.load(std::memory_order_relaxed);
  }
  /// @}

  /// Configured base-graph shard count (1 = unsharded).
  size_t shards() const { return base_snapshots_.shards(); }

  /// Per-shard writer-lock acquisitions of the base snapshot store.
  std::vector<uint64_t> shard_writer_acquisitions() const {
    return base_snapshots_.writer_acquisitions();
  }

  /// Installs the fault-injection hook for the sites the catalog owns
  /// (`kSnapshotBuild`, `kMaintainerApply`). The engine wires its
  /// `EngineOptions::fault_hooks` through here at construction; call
  /// before concurrent use begins.
  void SetFaultHook(FaultHook hook) { fault_hooks_.hook = std::move(hook); }

  /// Snapshot productions that failed via an injected `kSnapshotBuild`
  /// fault (each one degraded that query to the legacy backend).
  size_t snapshot_build_failures() const {
    return snapshot_build_failures_.load(std::memory_order_relaxed);
  }

 private:
  /// Returns `store`'s current snapshot, producing it on a miss (after
  /// the `kSnapshotBuild` fault site, labelled `what`) and folding the
  /// production into the telemetry.
  std::shared_ptr<const graph::CsrGraph> SnapshotOf(const SegmentStore& store,
                                                    const char* what) const;

  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Registers a `kBuilding` entry for `definition` with an empty graph
  /// and its own snapshot store. Caller holds `mu_` exclusively.
  CatalogEntry* AddEntry(const ViewDefinition& definition);

  /// Quarantine with `mu_` already held exclusively.
  void QuarantineLocked(CatalogEntry* entry, Status reason);

  /// Moves the plan epoch and recomputes `plan_literal_keys_`. Caller
  /// holds `mu_` exclusively.
  void BumpPlanEpoch();

  /// Recomputes `base_stats_` when the base graph drifted past the
  /// staleness threshold; true when it did. Caller holds `mu_`
  /// exclusively.
  bool RefreshBaseStatsIfStale();

  const graph::PropertyGraph* base_;
  mutable std::shared_mutex mu_;
  /// unique_ptr: entries are pointer-stable and individually droppable.
  std::vector<std::unique_ptr<CatalogEntry>> entries_;
  ViewHandle next_handle_ = 1;
  std::atomic<uint64_t> generation_{1};
  std::atomic<uint64_t> plan_epoch_{1};
  /// Written under `mu_` exclusively, read under the caller's exclusion
  /// of writers (see `base_stats`).
  graph::GraphStats base_stats_;
  std::vector<std::string> plan_literal_keys_;
  /// Snapshot pipeline of the base graph; views own theirs.
  SegmentStore base_snapshots_;
  mutable std::atomic<size_t> snapshot_builds_{0};
  mutable std::atomic<size_t> snapshot_hits_{0};
  mutable std::atomic<size_t> snapshot_patches_{0};
  mutable std::atomic<size_t> snapshot_full_builds_{0};
  mutable std::atomic<size_t> snapshot_build_failures_{0};
  mutable std::atomic<uint64_t> patch_segments_copied_{0};
  mutable std::atomic<uint64_t> patch_segments_shared_{0};
  mutable std::atomic<uint64_t> patch_bytes_copied_{0};
  std::atomic<size_t> quarantine_events_{0};
  /// Fault sites owned by the catalog; no-op unless a hook is installed.
  FaultHooks fault_hooks_;
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_CATALOG_H_
