#include "core/catalog.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "core/cost_model.h"

namespace kaskade::core {

namespace {

void RefreshStats(CatalogEntry* entry) {
  entry->stats = graph::GraphStats::Compute(entry->view.graph);
}

/// True when `now` drifted far enough (>10% of its live vertex or edge
/// count, with a small-graph floor) from the counts `stats` was
/// computed at that plan costing would be misled, or gained a vertex
/// type `stats` has no summary for.
bool StatsAreStale(const graph::GraphStats& stats,
                   const graph::PropertyGraph& now) {
  auto drifted = [](size_t current, size_t then) {
    size_t diff = current > then ? current - then : then - current;
    return diff * 10 > then + 32;
  };
  return drifted(now.NumLiveVertices(), stats.num_vertices()) ||
         drifted(now.NumLiveEdges(), stats.num_edges()) ||
         now.schema().num_vertex_types() != stats.per_type().size();
}

/// Swaps `view` into `entry` and re-attaches a maintainer when the kind
/// supports one (a replaced view invalidates any previous maintainer's
/// indexes; a null maintainer means RefreshAll re-materializes instead).
/// The new graph shares no lineage with the entry's snapshots, so its
/// next snapshot is a full build.
void Install(const graph::PropertyGraph& base, CatalogEntry* entry,
             MaterializedView view) {
  entry->view = std::move(view);
  entry->maintainer =
      ViewMaintainer::SupportsKind(entry->view.definition.kind)
          ? std::make_unique<ViewMaintainer>(&base, &entry->view)
          : nullptr;
  entry->snapshots->NoteChanged();
  RefreshStats(entry);
}

/// Re-materializes `entry` over `base`. Its snapshots are dropped first:
/// their memory is released before the rebuild allocates, and a failed
/// rebuild leaves the old graph (possibly half-updated by a failed
/// maintenance pass) with none to serve.
Status Rebuild(const graph::PropertyGraph& base, CatalogEntry* entry) {
  entry->snapshots->NoteChanged();
  Result<MaterializedView> fresh = Materialize(base, entry->view.definition);
  if (!fresh.ok()) return fresh.status();
  Install(base, entry, std::move(*fresh));
  return Status::OK();
}

}  // namespace

void ViewCatalog::BumpPlanEpoch() {
  plan_epoch_.fetch_add(1, std::memory_order_acq_rel);
  plan_literal_keys_.clear();
  for (const auto& entry : entries_) {
    const ViewDefinition& def = entry->view.definition;
    if (entry->state != ViewState::kReady || !def.has_predicate()) continue;
    if (std::find(plan_literal_keys_.begin(), plan_literal_keys_.end(),
                  def.predicate_property) == plan_literal_keys_.end()) {
      plan_literal_keys_.push_back(def.predicate_property);
    }
  }
}

bool ViewCatalog::RefreshBaseStatsIfStale() {
  if (!StatsAreStale(base_stats_, *base_)) return false;
  base_stats_ = graph::GraphStats::Compute(*base_);
  return true;
}

void ViewCatalog::NoteBaseGraphChanged() {
  std::unique_lock lock(mu_);
  BumpGeneration();
  base_snapshots_.NoteChanged();
  if (RefreshBaseStatsIfStale()) BumpPlanEpoch();
}

CatalogEntry* ViewCatalog::AddEntry(const ViewDefinition& definition) {
  auto entry = std::unique_ptr<CatalogEntry>(new CatalogEntry{
      next_handle_++,
      MaterializedView{definition, graph::PropertyGraph(graph::GraphSchema{}),
                       {}},
      graph::GraphStats{}, nullptr, ViewState::kBuilding, Status::OK(),
      nullptr});
  // The store binds to the graph's final address inside the entry.
  entry->snapshots = std::make_unique<SegmentStore>(&entry->view.graph, 1);
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

const char* ViewStateName(ViewState state) {
  switch (state) {
    case ViewState::kBuilding:
      return "building";
    case ViewState::kReady:
      return "ready";
    case ViewState::kDropping:
      return "dropping";
    case ViewState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

Result<ViewHandle> ViewCatalog::Add(const ViewDefinition& definition) {
  std::unique_lock lock(mu_);
  CatalogEntry* reclaim = nullptr;
  for (const auto& entry : entries_) {
    if (entry->name() == definition.Name()) {
      // A quarantined entry holds a name whose view failed: re-adding it
      // is the repair path, rebuilding in place under the same handle.
      if (entry->state == ViewState::kQuarantined) {
        reclaim = entry.get();
        break;
      }
      return Status::AlreadyExists("view '" + definition.Name() +
                                   "' already materialized");
    }
  }
  Result<MaterializedView> view = Materialize(*base_, definition);
  if (!view.ok()) return view.status();
  CatalogEntry* entry = reclaim != nullptr ? reclaim : AddEntry(definition);
  Install(*base_, entry, std::move(*view));
  entry->state = ViewState::kReady;
  entry->health = Status::OK();
  BumpGeneration();
  BumpPlanEpoch();
  return entry->handle;
}

Result<ViewHandle> ViewCatalog::BeginBuild(const ViewDefinition& definition) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name() == definition.Name()) {
      if (entry->state == ViewState::kQuarantined) {
        // Reclaim the broken entry as the build's placeholder: same
        // handle, back to `kBuilding`, so the builder's eventual
        // `Publish` repairs the view in place. No generation bump —
        // a quarantined entry was already planner-invisible.
        entry->view = MaterializedView{
            definition, graph::PropertyGraph(graph::GraphSchema{}), {}};
        entry->maintainer.reset();
        entry->state = ViewState::kBuilding;
        entry->health = Status::OK();
        entry->snapshots->NoteChanged();
        return entry->handle;
      }
      return Status::AlreadyExists(
          "view '" + definition.Name() + "' already registered (" +
          ViewStateName(entry->state) + ")");
    }
  }
  // No generation bump: nothing planner-visible changed, so cached plans
  // stay exactly as valid as they were.
  return AddEntry(definition)->handle;
}

Status ViewCatalog::Publish(ViewHandle handle, MaterializedView built) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle != handle) continue;
    if (entry->state != ViewState::kBuilding) {
      return Status::FailedPrecondition("view '" + entry->name() +
                                        "' is not in the building state");
    }
    Install(*base_, entry.get(), std::move(built));
    entry->state = ViewState::kReady;
    BumpGeneration();
    BumpPlanEpoch();
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the published handle");
}

Status ViewCatalog::AbortBuild(ViewHandle handle) {
  std::unique_lock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->handle != handle) continue;
    if ((*it)->state != ViewState::kBuilding) {
      return Status::FailedPrecondition("view '" + (*it)->name() +
                                        "' is not in the building state");
    }
    entries_.erase(it);
    // No generation bump: the placeholder was never planner-visible.
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the aborted handle");
}

void ViewCatalog::QuarantineLocked(CatalogEntry* entry, Status reason) {
  entry->state = ViewState::kQuarantined;
  entry->health = std::move(reason);
  // The maintainer's indexes describe a view that can no longer be kept
  // exact; a reclaim rebuilds both from scratch.
  entry->maintainer.reset();
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
  // Out of service: release the snapshot memory until a reclaim.
  entry->snapshots->NoteChanged();
  // Cached plans that routed queries to this view must stop matching.
  BumpGeneration();
  BumpPlanEpoch();
}

Status ViewCatalog::Quarantine(ViewHandle handle, Status reason) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle != handle) continue;
    if (entry->state == ViewState::kQuarantined) return Status::OK();
    QuarantineLocked(entry.get(), std::move(reason));
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the quarantined handle");
}

Status ViewCatalog::Remove(const std::string& name) {
  std::unique_lock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->name() == name) {
      if ((*it)->state == ViewState::kBuilding) {
        return Status::FailedPrecondition(
            "view '" + name +
            "' is still building; wait for the build to publish "
            "(Engine::WaitForBuilds) and retry the removal");
      }
      (*it)->state = ViewState::kDropping;
      entries_.erase(it);
      BumpGeneration();
      BumpPlanEpoch();
      return Status::OK();
    }
  }
  return Status::NotFound("view '" + name + "' is not in the catalog");
}

Status ViewCatalog::RefreshAll() {
  std::unique_lock lock(mu_);
  // Unconditional: even a no-op refresh may follow base-graph changes
  // that shifted raw-plan costs.
  BumpGeneration();
  BumpPlanEpoch();
  for (const auto& entry : entries_) {
    // In-flight builds catch up at publish time; there is no view graph
    // to refresh yet.
    if (entry->state != ViewState::kReady) continue;
    if (entry->maintainer != nullptr) {
      // CatchUp only ever *appends* to the view (it replays insertions
      // past the watermark), which the snapshot store discovers from
      // id-space growth: no removal list needed.
      Result<MaintenanceStats> stats = entry->maintainer->CatchUp();
      if (stats.ok()) {
        entry->snapshots->NoteDelta({});
        if (stats->edges_added + stats->edges_removed +
                stats->edges_updated + stats->vertices_added +
                stats->vertices_removed ==
                0 &&
            !StatsAreStale(entry->stats, entry->view.graph)) {
          // Nothing changed now and no drift was deferred by the
          // delta path: stats are exact already.
          continue;
        }
        RefreshStats(entry.get());
        continue;
      }
      if (stats.status().code() != StatusCode::kFailedPrecondition) {
        return stats.status();
      }
      // The base graph saw removals the maintainer never heard about
      // (e.g. a MutateBaseGraph writer deleting edges directly): the
      // view is unreconstructible incrementally — rebuild it rather
      // than serve stale results.
    }
    KASKADE_RETURN_IF_ERROR(Rebuild(*base_, entry.get()));
  }
  return Status::OK();
}

Result<DeltaMaintenanceReport> ViewCatalog::ApplyBaseDelta(
    const graph::GraphDelta& delta) {
  std::unique_lock lock(mu_);
  // One generation bump covers the whole batch — plans of the pre-delta
  // catalog are checked against it exactly once.
  BumpGeneration();
  // Plan choice only moves when a statistic the planner costs with
  // does: a refreshed base or view summary, or a view rematerialized
  // (quarantines move the epoch themselves).
  bool plan_visible = RefreshBaseStatsIfStale();
  // The removals plus id-space growth describe exactly how the base
  // graph moved, so the next BaseSnapshot patches instead of rebuilding.
  base_snapshots_.NoteDelta(delta.edge_removals);
  DeltaMaintenanceReport report;
  const size_t inserts = delta.edge_inserts.size();
  const size_t removals = delta.edge_removals.size();
  std::vector<graph::EdgeId> removed_view_edges;
  for (const auto& entry : entries_) {
    // kBuilding placeholders are invisible to maintenance (the engine's
    // pending-delta log replays this batch onto them at publish time),
    // and kQuarantined entries are out of service entirely.
    if (entry->state != ViewState::kReady) continue;
    if (fault_hooks_.enabled()) {
      Status injected =
          fault_hooks_.Fire(FaultSite::kMaintainerApply, entry->name());
      if (!injected.ok()) {
        // The injected failure stands in for a maintenance pass that
        // left the view unreconstructible: quarantine it and keep
        // maintaining the rest of the batch.
        QuarantineLocked(entry.get(), std::move(injected));
        ++report.views_quarantined;
        continue;
      }
    }
    bool incremental =
        entry->maintainer != nullptr &&
        !PreferRematerialization(*base_, entry->view.definition, inserts,
                                 removals);
    if (incremental) {
      removed_view_edges.clear();
      entry->maintainer->set_removed_edge_sink(&removed_view_edges);
      Result<MaintenanceStats> stats = entry->maintainer->ApplyDelta(delta);
      entry->maintainer->set_removed_edge_sink(nullptr);
      if (stats.ok()) {
        entry->snapshots->NoteDelta(removed_view_edges);
        report.stats += *stats;
        ++report.views_incremental;
        // Re-weighted edges (edges_updated) never move the degree
        // profile, and small topology changes drift the statistics too
        // little to change plan choice — only recompute (O(V log V))
        // once the view drifted past the staleness threshold.
        bool topology_changed = stats->edges_added + stats->edges_removed +
                                    stats->vertices_added +
                                    stats->vertices_removed !=
                                0;
        if (topology_changed &&
            StatsAreStale(entry->stats, entry->view.graph)) {
          RefreshStats(entry.get());
          plan_visible = true;
        }
        continue;
      }
      if (stats.status().code() != StatusCode::kFailedPrecondition) {
        // Internal errors signal corrupt maintenance state: the failed
        // pass may have mutated the view in ways neither a removal list
        // nor a maintainer rebuild can describe. Quarantine the view rather
        // than failing the whole write — the base graph and every other
        // view are already exact, and queries that would have used this
        // view fall back to the base graph.
        QuarantineLocked(entry.get(), stats.status());
        ++report.views_quarantined;
        continue;
      }
      // A FailedPrecondition pass may have left the view half-updated;
      // rebuilding restores exactness instead of stranding a stale
      // entry behind the already-mutated base graph.
    }
    // The failed pass above may already have tombstoned view edges no
    // store heard about; Rebuild drops the view's snapshots either way.
    Status rebuilt = Rebuild(*base_, entry.get());
    if (!rebuilt.ok()) {
      // The half-updated view could not be restored to exactness:
      // quarantine it so it is never served, and keep going — failing
      // the write here would strand every *other* view behind an
      // already-mutated base graph.
      QuarantineLocked(entry.get(), std::move(rebuilt));
      ++report.views_quarantined;
      continue;
    }
    ++report.views_rematerialized;
    plan_visible = true;
  }
  if (plan_visible) BumpPlanEpoch();
  return report;
}

size_t ViewCatalog::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

size_t ViewCatalog::num_ready() const {
  std::shared_lock lock(mu_);
  size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry->state == ViewState::kReady) ++count;
  }
  return count;
}

size_t ViewCatalog::num_quarantined() const {
  std::shared_lock lock(mu_);
  size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry->state == ViewState::kQuarantined) ++count;
  }
  return count;
}

const CatalogEntry* ViewCatalog::Find(const std::string& name) const {
  std::shared_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name() == name) return entry.get();
  }
  return nullptr;
}

const CatalogEntry* ViewCatalog::Get(ViewHandle handle) const {
  std::shared_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle == handle) return entry.get();
  }
  return nullptr;
}

std::vector<const CatalogEntry*> ViewCatalog::Entries() const {
  std::shared_lock lock(mu_);
  std::vector<const CatalogEntry*> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.get());
  return out;
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::SnapshotOf(
    const SegmentStore& store, const char* what) const {
  if (std::shared_ptr<const graph::CsrGraph> cached = store.Cached()) {
    snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  if (fault_hooks_.enabled()) {
    Status injected = fault_hooks_.Fire(FaultSite::kSnapshotBuild, what);
    if (!injected.ok()) {
      // A failed snapshot production is fully recoverable: the caller
      // sees no CSR and the query layer degrades to the legacy
      // (non-CSR) MATCH backend — slower, still exact. Nothing was
      // produced, so the next request retries.
      snapshot_build_failures_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  SegmentStore::Outcome outcome = SegmentStore::Outcome::kHit;
  graph::CsrPatchStats stats;
  std::shared_ptr<const graph::CsrGraph> snap =
      store.Snapshot(&outcome, &stats);
  // Segment work counts even when a concurrent caller published first.
  patch_segments_copied_.fetch_add(stats.segments_copied,
                                   std::memory_order_relaxed);
  patch_segments_shared_.fetch_add(stats.segments_shared,
                                   std::memory_order_relaxed);
  patch_bytes_copied_.fetch_add(stats.bytes_copied, std::memory_order_relaxed);
  if (outcome == SegmentStore::Outcome::kHit) {
    snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
    return snap;
  }
  snapshot_builds_.fetch_add(1, std::memory_order_relaxed);
  (outcome == SegmentStore::Outcome::kPatch ? snapshot_patches_
                                            : snapshot_full_builds_)
      .fetch_add(1, std::memory_order_relaxed);
  return snap;
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::BaseSnapshot() const {
  return SnapshotOf(base_snapshots_, "base");
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::SnapshotFor(
    ViewHandle handle) const {
  const CatalogEntry* entry = Get(handle);
  if (entry == nullptr) return nullptr;
  return SnapshotOf(*entry->snapshots, "view snapshot");
}

}  // namespace kaskade::core
