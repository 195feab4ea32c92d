/// \file segment_store.h
/// \brief The snapshot pipeline: incrementally maintained CSR snapshots
/// of one graph, built from immutable segments shared between versions.
///
/// Every CSR snapshot the engine serves comes from a `SegmentStore`: the
/// catalog owns one over the base graph (K = `EngineOptions::shards`)
/// and one with K = 1 over each view's graph. Vertices are partitioned
/// across K shards on segment boundaries (`graph::ShardOfSegment`, i.e.
/// segment index mod K), and each shard owns:
///
///  - the segment slots for its segments,
///  - a writer mutex serializing refreshes of *that shard only*, and
///  - dirty-segment and dirty-vertex flags fed by `NoteDelta` with
///    O(|delta|) work.
///
/// Snapshot production is per-shard incremental: a stale shard patches
/// only its dirty segments through `CsrGraph::PatchSegment` (clean rows
/// block-copied, dirty rows re-derived by the per-vertex routine
/// `BuildSegment` uses, so the assembled snapshot is byte-identical to
/// `CsrGraph::Build` by construction) and shares every clean segment
/// with the previous version by refcount. There is no cap on how much
/// may change between two snapshots: the dirty flags are a set, so a
/// long run of unread batches costs one patch of their union. Concurrent
/// readers refreshing *different* shards proceed in parallel; only
/// same-shard refreshes serialize on that shard's writer lock.
///
/// Locking contract (the Engine's reader/writer discipline):
///  - `NoteDelta` / `NoteChanged` run under the engine writer lock —
///    exclusive with every `Snapshot` call, so they may resize the
///    segment table freely.
///  - `Snapshot` / `Cached` run under the engine reader lock —
///    concurrent with each other but never with mutation, so the graph
///    and the store's version are frozen for the duration of the call.

#ifndef KASKADE_CORE_SEGMENT_STORE_H_
#define KASKADE_CORE_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr.h"
#include "graph/property_graph.h"

namespace kaskade::core {

class SegmentStore {
 public:
  /// What one `Snapshot` call did, for the catalog's telemetry split.
  enum class Outcome {
    kHit,        ///< the current snapshot was cached; nothing produced
    kPatch,      ///< produced; some segment was shared or patched
    kFullBuild,  ///< produced; every segment came from `BuildSegment`
  };

  /// Binds to `graph`, which must outlive the store and stay at one
  /// address. `shards` must be >= 1; the partition is fixed for the
  /// store's lifetime.
  SegmentStore(const graph::PropertyGraph* graph, size_t shards);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Records one applied batch: `removed_edges` lists the edge ids it
  /// tombstoned (their records stay readable), and appended vertices and
  /// edges are discovered from id-space growth. Marks every removal
  /// endpoint and every appended edge's endpoints dirty, together with
  /// their segments — O(|batch|), independent of |E|. A batch that
  /// changed nothing leaves the cached snapshot current. Engine writer
  /// lock required.
  void NoteDelta(const std::vector<graph::EdgeId>& removed_edges);

  /// Announces a change no removal list can describe (the graph was
  /// replaced or mutated arbitrarily): drops every segment and the
  /// cached snapshot, so the next `Snapshot` is a full build. Engine
  /// writer lock required.
  void NoteChanged();

  /// The snapshot of the graph's current state when it is already
  /// assembled, else null. Engine reader lock required.
  std::shared_ptr<const graph::CsrGraph> Cached() const;

  /// Returns the snapshot of the graph's current state. Stale shards are
  /// refreshed under their own writer locks — dirty segments patched,
  /// clean ones shared — then the segment table is assembled into one
  /// `CsrGraph` and cached until the next change. `*stats` (when given)
  /// receives the segment work this call did. Engine reader lock
  /// required.
  std::shared_ptr<const graph::CsrGraph> Snapshot(
      Outcome* outcome = nullptr, graph::CsrPatchStats* stats = nullptr) const;

  size_t shards() const { return shards_.size(); }

  /// Writer-lock acquisitions per shard (index = shard), lifetime totals.
  std::vector<uint64_t> writer_acquisitions() const;

 private:
  struct Shard {
    /// Serializes refreshes of this shard's segments; disjoint shards
    /// refresh concurrently.
    mutable std::mutex mu;
    /// Store version the shard's segment slots are current for. Stored
    /// with release after the slot writes, loaded with acquire before
    /// reading them, so assembly sees completed segments.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> writer_acquisitions{0};
  };

  /// Grows/shrinks the segment table to the graph's current segment
  /// count (new slots start empty) and syncs the seen counters. Caller
  /// holds the engine writer lock.
  void SyncShape();

  const graph::PropertyGraph* graph_;
  /// unique_ptr: Shard holds a mutex and atomics, so the vector's
  /// elements must be pointer-stable and non-movable.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Moves on every change `NoteDelta`/`NoteChanged` records; keys the
  /// shard stamps and the assembled-snapshot cache. Starts at 1, so
  /// every shard (stamped 0) starts stale.
  uint64_t version_ = 1;

  /// Segment slots, indexed by segment; slot `i` is owned by shard
  /// `ShardOfSegment(i, K)` and only written under that shard's `mu`.
  /// An empty slot is built from scratch on refresh. The vector itself
  /// is only resized under the engine writer lock (`SyncShape`), never
  /// concurrently with `Snapshot`.
  mutable std::vector<graph::CsrSegmentPtr> segments_;
  /// Dirty flags, indexed by segment; set by `NoteDelta` (writer lock),
  /// cleared by the owning shard's refresh (shard lock). Distinct bytes
  /// are distinct memory locations, so cross-shard clears don't race.
  mutable std::vector<uint8_t> seg_dirty_;
  /// Dirty flags, indexed by vertex, under the same discipline as
  /// `seg_dirty_`: a flagged vertex's segment is flagged too, and the
  /// segment's refresh clears its vertices' flags.
  mutable std::vector<uint8_t> vertex_dirty_;

  /// Graph shape at the last `NoteDelta`/`NoteChanged`, for discovering
  /// appended vertices/edges from id-space growth (no log needed).
  size_t vertices_seen_ = 0;
  size_t edges_seen_ = 0;

  /// Assembled-snapshot cache, keyed by version.
  mutable std::mutex cache_mu_;
  mutable std::shared_ptr<const graph::CsrGraph> cache_;
  mutable uint64_t cache_version_ = 0;
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_SEGMENT_STORE_H_
