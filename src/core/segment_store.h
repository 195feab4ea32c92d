/// \file segment_store.h
/// \brief Per-shard snapshot pipeline over the base graph's immutable
/// CSR segments.
///
/// When `EngineOptions::shards >= 2` the catalog routes base-graph
/// snapshot production through this store instead of the monolithic
/// `SnapshotSlot` path. Vertices are hash-partitioned across K shards
/// on segment boundaries (`graph::ShardOfSegment`, i.e. segment index
/// mod K), and each shard owns:
///
///  - the segment slots for its segments,
///  - a writer mutex serializing refreshes of *that shard only*, and
///  - dirty-segment and dirty-vertex sets fed by `NoteDelta` with
///    O(|delta|) work.
///
/// Snapshot production is then per-shard incremental: a stale shard
/// patches only its dirty segments (via `CsrGraph::PatchSegment`, the
/// routine the unsharded `CsrGraph::PatchedFrom` uses: clean rows
/// block-copied, dirty rows re-derived — so the assembled snapshot is
/// byte-identical to a fresh build by construction) and shares every
/// clean segment with the previous generation by refcount. Concurrent
/// readers refreshing *different* shards proceed in parallel; only
/// same-shard refreshes serialize on that shard's writer lock.
///
/// Locking contract (the Engine's reader/writer discipline):
///  - `NoteDelta` / `NoteChanged` run under the engine writer lock —
///    exclusive with every `Snapshot` call, so they may resize the
///    segment table freely.
///  - `Snapshot` runs under the engine reader lock — concurrent with
///    other `Snapshot` calls but never with mutation, so the graph and
///    the version are frozen for the duration of the call and all
///    concurrent callers pass the *same* version.

#ifndef KASKADE_CORE_SEGMENT_STORE_H_
#define KASKADE_CORE_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"

namespace kaskade::core {

class SegmentStore {
 public:
  /// What one `Snapshot` call did, for the catalog's telemetry split.
  enum class Outcome {
    kHit,        ///< version-cached snapshot returned, nothing produced
    kPatch,      ///< produced; at least one segment was shared
    kFullBuild,  ///< produced; every segment was (re)built
  };

  /// Binds to the base graph. `shards` must be >= 1; the partition is
  /// fixed for the store's lifetime.
  SegmentStore(const graph::PropertyGraph* base, size_t shards);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Records one applied base batch: marks every removal endpoint and
  /// every appended edge's endpoints dirty, together with their
  /// segments in the owning shards — O(|delta|), independent of |E|. A
  /// null footprint (out-of-band mutation) marks every shard for a full
  /// per-shard rebuild. Engine writer lock required.
  void NoteDelta(const graph::DeltaFootprintPtr& delta);

  /// Announces an out-of-band change the footprint cannot describe:
  /// every shard rebuilds all of its segments on next refresh. Engine
  /// writer lock required.
  void NoteChanged();

  /// Returns the snapshot for the current graph state, stamped
  /// `version` (the catalog generation). Stale shards are refreshed
  /// under their own writer locks — dirty segments patched, clean ones
  /// shared — then the per-shard segment tables are assembled into one
  /// `CsrGraph` and cached by version. Engine reader lock required.
  std::shared_ptr<const graph::CsrGraph> Snapshot(
      uint64_t version, Outcome* outcome = nullptr) const;

  size_t shards() const { return shards_.size(); }

  /// \name Telemetry (monotonic, lifetime totals).
  /// @{
  uint64_t segments_copied() const {
    return segments_copied_.load(std::memory_order_relaxed);
  }
  uint64_t segments_shared() const {
    return segments_shared_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_copied() const {
    return bytes_copied_.load(std::memory_order_relaxed);
  }
  /// Vertex rows re-derived from adjacency (the rest of every written
  /// segment was block-copied from its previous version).
  uint64_t vertices_rederived() const {
    return vertices_rederived_.load(std::memory_order_relaxed);
  }
  /// Writer-lock acquisitions per shard (index = shard).
  std::vector<uint64_t> writer_acquisitions() const;
  /// @}

 private:
  /// Sentinel: "never refreshed" (catalog generations start at 1 and
  /// count up; they cannot reach this).
  static constexpr uint64_t kNeverRefreshed = ~uint64_t{0};

  struct Shard {
    /// Serializes refreshes of this shard's segments; disjoint shards
    /// refresh concurrently.
    mutable std::mutex mu;
    /// Version the shard's segment slots are current for. Stored with
    /// release after the slot writes, loaded with acquire before
    /// reading them, so assembly sees completed segments.
    std::atomic<uint64_t> version{kNeverRefreshed};
    /// Set by `NoteChanged`: the next refresh rebuilds every owned
    /// segment regardless of the dirty set.
    std::atomic<bool> rebuild_all{false};
    std::atomic<uint64_t> writer_acquisitions{0};
  };

  /// Grows/shrinks the segment table to the graph's current segment
  /// count (new slots start dirty) and syncs the seen counters. Caller
  /// holds the engine writer lock.
  void SyncShape();

  const graph::PropertyGraph* base_;
  /// unique_ptr: Shard holds a mutex and atomics, so the vector's
  /// elements must be pointer-stable and non-movable.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Segment slots, indexed by segment; slot `i` is owned by shard
  /// `ShardOfSegment(i, K)` and only written under that shard's `mu`.
  /// The vector itself is only resized under the engine writer lock
  /// (`SyncShape`), never concurrently with `Snapshot`.
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

  mutable std::atomic<uint64_t> segments_copied_{0};
  mutable std::atomic<uint64_t> segments_shared_{0};
  mutable std::atomic<uint64_t> bytes_copied_{0};
  mutable std::atomic<uint64_t> vertices_rederived_{0};
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_SEGMENT_STORE_H_
