#include "core/segment_store.h"

#include <algorithm>
#include <utility>

namespace kaskade::core {

SegmentStore::SegmentStore(const graph::PropertyGraph* graph, size_t shards)
    : graph_(graph) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  SyncShape();
}

void SegmentStore::SyncShape() {
  const size_t n = graph_->NumVertices();
  const size_t num_segs = graph::CsrSegmentCount(n);
  if (num_segs != segments_.size()) {
    // New slots start empty (built from scratch at refresh); a shrink
    // simply drops the tail slots.
    segments_.resize(num_segs);
    seg_dirty_.resize(num_segs, 0);
  }
  // Appended vertices need no flag: rows past a segment's previous end
  // are always re-derived (`CsrGraph::PatchSegment`).
  vertex_dirty_.resize(n, 0);
  vertices_seen_ = n;
  edges_seen_ = graph_->NumEdges();
}

void SegmentStore::NoteChanged() {
  SyncShape();
  std::fill(segments_.begin(), segments_.end(), nullptr);
  std::fill(seg_dirty_.begin(), seg_dirty_.end(), uint8_t{0});
  std::fill(vertex_dirty_.begin(), vertex_dirty_.end(), uint8_t{0});
  ++version_;
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.reset();
}

void SegmentStore::NoteDelta(const std::vector<graph::EdgeId>& removed_edges) {
  const size_t n = graph_->NumVertices();
  if (n < vertices_seen_) {
    // Vertices never shrink under the delta protocol; treat anything
    // else as an out-of-band change.
    NoteChanged();
    return;
  }
  const size_t prev_vertices = vertices_seen_;
  const size_t prev_edges = edges_seen_;
  SyncShape();
  const size_t num_segs = seg_dirty_.size();
  bool changed = n != prev_vertices;
  auto mark = [&](graph::VertexId v) {
    const size_t s = graph::CsrSegmentOf(v);
    if (s < num_segs) seg_dirty_[s] = 1;
    if (v < n) vertex_dirty_[v] = 1;
    changed = true;
  };
  if (n != prev_vertices && (prev_vertices >> graph::kCsrSegmentShift) <
                                num_segs) {
    // The segment straddling the old vertex-count boundary changed
    // shape when vertices were appended.
    seg_dirty_[prev_vertices >> graph::kCsrSegmentShift] = 1;
  }
  // Removal endpoints: tombstoned records stay readable. Removals of
  // edges appended within this window are covered by the append scan.
  for (graph::EdgeId e : removed_edges) {
    if (static_cast<size_t>(e) >= prev_edges) continue;
    const graph::EdgeRecord& rec = graph_->Edge(e);
    mark(rec.source);
    mark(rec.target);
  }
  // Appended edges, discovered from id-space growth.
  const size_t now_edges = graph_->NumEdges();
  for (size_t e = prev_edges; e < now_edges; ++e) {
    const graph::EdgeRecord& rec = graph_->Edge(static_cast<graph::EdgeId>(e));
    mark(rec.source);
    mark(rec.target);
  }
  // A batch that touched nothing keeps the cached snapshot current.
  if (changed) ++version_;
}

std::vector<uint64_t> SegmentStore::writer_acquisitions() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->writer_acquisitions.load(std::memory_order_relaxed));
  }
  return out;
}

std::shared_ptr<const graph::CsrGraph> SegmentStore::Cached() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_version_ == version_ ? cache_ : nullptr;
}

std::shared_ptr<const graph::CsrGraph> SegmentStore::Snapshot(
    Outcome* outcome, graph::CsrPatchStats* stats_out) const {
  Outcome local_outcome = Outcome::kHit;
  Outcome& oc = outcome != nullptr ? *outcome : local_outcome;
  graph::CsrPatchStats local_stats;
  graph::CsrPatchStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats = graph::CsrPatchStats{};
  if (std::shared_ptr<const graph::CsrGraph> cached = Cached()) {
    oc = Outcome::kHit;
    return cached;
  }
  // Mutation is excluded for the duration of this call, so the shape
  // and `version_` read here are stable and a shard stamped `version_`
  // stays current.
  const size_t num_segs = segments_.size();
  const size_t k = shards_.size();
  stats.total_segments = num_segs;
  size_t patched = 0;
  for (size_t s = 0; s < k; ++s) {
    Shard& shard = *shards_[s];
    if (shard.version.load(std::memory_order_acquire) == version_) continue;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (shard.version.load(std::memory_order_relaxed) == version_) {
      continue;  // another reader refreshed it while we waited
    }
    for (size_t seg = s; seg < num_segs; seg += k) {
      if (seg_dirty_[seg] == 0 && segments_[seg] != nullptr) {
        ++stats.segments_shared;
        continue;
      }
      const size_t first = seg << graph::kCsrSegmentShift;
      uint8_t* dirty = vertex_dirty_.data() + first;
      if (segments_[seg] == nullptr) {
        segments_[seg] = graph::CsrGraph::BuildSegment(*graph_, seg);
        stats.dirty_vertices += segments_[seg]->num_vertices;
        stats.vertices_rederived += segments_[seg]->num_vertices;
      } else {
        // Clean rows block-copied, dirty and appended rows re-derived.
        const uint32_t old_rows = segments_[seg]->num_vertices;
        stats.dirty_vertices += static_cast<size_t>(
            std::count_if(dirty, dirty + old_rows,
                          [](uint8_t d) { return d != 0; }));
        segments_[seg] = graph::CsrGraph::PatchSegment(
            *segments_[seg], *graph_, seg, dirty, &stats.vertices_rederived);
        stats.dirty_vertices += segments_[seg]->num_vertices - old_rows;
        ++patched;
      }
      std::fill(dirty, dirty + segments_[seg]->num_vertices, uint8_t{0});
      seg_dirty_[seg] = 0;
      ++stats.segments_copied;
      stats.bytes_copied += segments_[seg]->ByteSize();
    }
    shard.version.store(version_, std::memory_order_release);
  }
  // Every shard is stamped `version_` (the acquire loads above order the
  // slot writes before the reads below), so the table is frozen:
  // assemble and publish. Concurrent callers may assemble duplicate
  // (identical) snapshots; the first to publish wins.
  std::vector<graph::CsrSegmentPtr> segs(segments_.begin(), segments_.end());
  auto built = std::make_shared<const graph::CsrGraph>(
      graph::CsrGraph::FromSegments(std::move(segs), graph_->NumVertices(),
                                    static_cast<graph::EdgeId>(
                                        graph_->NumEdges())));
  // A call whose refreshes all came from `BuildSegment` is a full build;
  // one that reused anything (including segments another caller
  // refreshed for this version) is a patch. Exactly one caller per
  // version publishes; the others report a hit.
  const bool reused = stats.segments_shared + patched > 0 ||
                      (stats.segments_copied == 0 && num_segs > 0);
  oc = reused ? Outcome::kPatch : Outcome::kFullBuild;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_version_ == version_) {
    oc = Outcome::kHit;
    return cache_;
  }
  cache_ = std::move(built);
  cache_version_ = version_;
  return cache_;
}

}  // namespace kaskade::core
