/// \file csr.h
/// \brief Immutable compressed-sparse-row snapshot of a property graph's
/// topology, stored as fixed-size immutable segments shared between
/// generations.
///
/// `PropertyGraph` optimizes for append-only mutation (per-vertex edge-id
/// vectors); traversal-heavy analytics want contiguous neighbor arrays.
/// `CsrGraph` is a frozen topology snapshot in the style of
/// shared-memory graph frameworks (Ligra et al., which the paper's
/// related work surveys): O(1) neighbor slices and cache-friendly scans.
///
/// The snapshot is *type-partitioned*: within each vertex's neighbor
/// slice, edges are grouped by edge type, and a per-vertex type directory
/// maps an `EdgeTypeId` to its contiguous sub-slice. A typed expansion —
/// the MATCH hot path — is therefore an O(#types-at-vertex) directory
/// probe plus a contiguous scan, instead of a filter over every incident
/// edge. Vertex ids are shared with the source graph, so vertex types
/// and properties are read there; the snapshot keeps only what a
/// traversal reads.
///
/// **Layout.** Per segment side (out and in): a 32-bit offset per row
/// into one 32-bit neighbor array, and a 32-bit offset per row into an
/// array of 8-byte type-directory entries. A segment thus holds 8 B per
/// live edge (one out-target, one in-source), 16 B per vertex (one entry
/// in each of four offset arrays, which hold one entry more than the
/// segment has rows), and 8 B per type-directory entry.
///
/// Dead (tombstoned) vertices keep empty rows so base ids stay valid as
/// CSR indices; dead edges are dropped at build time.
///
/// **Segmented storage.** The vertex id space is cut into fixed-size
/// ranges of `kCsrSegmentVertices` ids; each range's slices and type
/// directories live in one immutable `CsrSegment` held by
/// `shared_ptr`. The engine's snapshot pipeline (`core::SegmentStore`)
/// *shares* every clean segment with the previous version by refcount
/// and writes a new version of each segment containing vertices
/// incident to a change through `PatchSegment`: clean runs of rows are
/// block-copied from the old version, and only the dirty rows are
/// re-derived from the graph. Re-derivation is O(dirty vertices),
/// independent of |E| and of how many segments the change touches.
/// `BuildSegment` and `PatchSegment` derive every row through one
/// per-vertex routine, and a copied row is a row that routine wrote
/// earlier, so a patched snapshot is bit-identical to a fresh build by
/// construction. The segment boundaries double as the engine's shard
/// boundaries (`ShardOfVertex`).

#ifndef KASKADE_GRAPH_CSR_H_
#define KASKADE_GRAPH_CSR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "graph/property_graph.h"

namespace kaskade::graph {

/// Log2 of the segment width: each `CsrSegment` covers
/// `kCsrSegmentVertices` consecutive vertex ids. Power of two so the
/// hot-path accessors are a shift and a mask.
inline constexpr uint32_t kCsrSegmentShift = 10;
inline constexpr uint32_t kCsrSegmentVertices = 1u << kCsrSegmentShift;
inline constexpr uint32_t kCsrSegmentMask = kCsrSegmentVertices - 1;

/// Segment index of the segment containing vertex `v`.
inline size_t CsrSegmentOf(VertexId v) { return v >> kCsrSegmentShift; }

/// Number of segments covering a vertex id space of size `n`.
inline size_t CsrSegmentCount(size_t n) {
  return (n + kCsrSegmentVertices - 1) >> kCsrSegmentShift;
}

/// \brief Shard router: vertices map to shards by segment, so one
/// segment (and everything a patch rebuilds) lives in exactly one
/// shard. Used by the engine's segment store and the MATCH
/// scatter-gather layer; `shards == 1` maps everything to 0.
inline uint32_t ShardOfVertex(VertexId v, size_t shards) {
  return static_cast<uint32_t>(CsrSegmentOf(v) % shards);
}
inline uint32_t ShardOfSegment(size_t segment, size_t shards) {
  return static_cast<uint32_t>(segment % shards);
}

/// \brief The segment work behind one snapshot production
/// (`core::SegmentStore::Snapshot`; telemetry for the catalog, benches
/// and tests).
struct CsrPatchStats {
  /// Pre-existing vertices whose out- or in-slice had to be re-derived,
  /// plus vertices appended since the previous snapshot; every vertex of
  /// a segment built from scratch.
  size_t dirty_vertices = 0;
  /// Rows actually re-derived from the graph's adjacency. This equals
  /// `dirty_vertices` — clean rows of patched segments are block-copied
  /// — which is the O(dirty vertices) property.
  size_t vertices_rederived = 0;
  /// Segments written anew (patched, or built from scratch).
  size_t segments_copied = 0;
  /// Segments shared with the previous snapshot by refcount (zero bytes
  /// copied for them).
  size_t segments_shared = 0;
  /// Total segments in the produced snapshot.
  size_t total_segments = 0;
  /// Bytes written into new segments — block-copied clean rows and
  /// re-derived rows alike (the copy cost of the patch; shared segments
  /// contribute nothing).
  size_t bytes_copied = 0;
};

/// \brief A contiguous, read-only neighbor slice.
struct NeighborSpan {
  const VertexId* data = nullptr;
  size_t size = 0;

  const VertexId* begin() const { return data; }
  const VertexId* end() const { return data + size; }
  VertexId operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

/// Index into a segment's neighbor or type-directory arrays. A segment
/// side holds at most one neighbor per live edge and one directory entry
/// per neighbor, so it never outgrows the graph's edge id space.
using CsrOffset = uint32_t;
static_assert(std::numeric_limits<CsrOffset>::max() >=
                  std::numeric_limits<EdgeId>::max(),
              "CSR offsets must span the EdgeId space");

/// \brief One immutable segment: the CSR rows of vertices
/// `[first_vertex, first_vertex + num_vertices)`. All offsets are local
/// to the segment's own arrays. Built once, never mutated afterwards —
/// generations share clean segments by `shared_ptr`.
struct CsrSegment {
  /// One entry of a vertex's type directory: edges of `type` occupy
  /// [begin, next entry's begin or the vertex's slice end).
  struct TypeDirEntry {
    EdgeTypeId type;
    CsrOffset begin;  ///< Index into this segment's neighbor arrays.
  };

  VertexId first_vertex = 0;
  uint32_t num_vertices = 0;  ///< ≤ kCsrSegmentVertices (tail may be short).

  std::vector<CsrOffset> out_offsets;  // num_vertices + 1
  std::vector<VertexId> out_targets;   // grouped by edge type per vertex
  std::vector<CsrOffset> in_offsets;
  std::vector<VertexId> in_sources;
  /// Per-vertex type directories (CSR-of-CSR): local vertex l's
  /// directory is `*_type_dirs[*_type_dir_offsets[l] ..
  /// *_type_dir_offsets[l+1])`, one entry per distinct incident type.
  std::vector<CsrOffset> out_type_dir_offsets;  // num_vertices + 1
  std::vector<TypeDirEntry> out_type_dirs;
  std::vector<CsrOffset> in_type_dir_offsets;
  std::vector<TypeDirEntry> in_type_dirs;

  /// Heap bytes held by this segment's arrays (copy-cost telemetry).
  size_t ByteSize() const;
};

using CsrSegmentPtr = std::shared_ptr<const CsrSegment>;

/// \brief CSR topology snapshot (out- and in-adjacency), vertex ids
/// shared with the source graph, neighbors grouped by edge type,
/// storage segmented and structurally shared between generations.
class CsrGraph {
 public:
  /// Freezes the topology of `g`. O(|V| + |E|).
  static CsrGraph Build(const PropertyGraph& g);

  /// Builds the single segment `seg` (vertex ids
  /// `[seg << kCsrSegmentShift, ...)`) from `g`'s current adjacency,
  /// deriving every row through the per-vertex slice routine that
  /// `PatchSegment` also uses. `Build` and the segment store's cold
  /// path (and segments wholly past a patch's old tail) come through
  /// here.
  static CsrSegmentPtr BuildSegment(const PropertyGraph& g, size_t seg);

  /// Builds segment `seg` of `g` from `prev`, the same segment of a
  /// snapshot of an earlier state of `g` (one that differs only by
  /// appended vertices/edges and tombstoned edges). `dirty[l]` is
  /// non-zero when local vertex `l`'s out- or in-slice changed since
  /// `prev`; it is read for `l < prev.num_vertices` only, since rows
  /// past `prev`'s end were appended and are always re-derived. Each
  /// maximal run of clean rows is block-copied from `prev` (one copy per
  /// array, offsets and type-directory `begin`s rebased by one
  /// constant); only dirty and appended rows are re-derived, through the
  /// same per-vertex routine as `BuildSegment`, so the result equals
  /// `BuildSegment(g, seg)` bit for bit. Adds the number of re-derived
  /// rows to `*rederived` when given.
  static CsrSegmentPtr PatchSegment(const CsrSegment& prev,
                                    const PropertyGraph& g, size_t seg,
                                    const uint8_t* dirty,
                                    size_t* rederived = nullptr);

  /// Assembles a snapshot from already-built segments (the segment
  /// store's publish path). `segments[i]` must cover vertex ids
  /// `[i << kCsrSegmentShift, ...)` of a graph with `num_vertices`
  /// vertices and edge id space `edge_id_space`.
  static CsrGraph FromSegments(std::vector<CsrSegmentPtr> segments,
                               size_t num_vertices, EdgeId edge_id_space);

  size_t NumVertices() const { return num_vertices_; }
  size_t NumEdges() const { return num_edges_; }

  /// The source graph's edge *id space* (`PropertyGraph::NumEdges()`,
  /// dead ids included) when this snapshot was taken. Edge ids at or
  /// beyond it were inserted after the snapshot — which is how the
  /// executor's staleness tripwire catches balanced insert+remove churn
  /// that leaves the live count unchanged.
  EdgeId edge_id_space() const { return edge_id_space_; }

  /// Segment introspection (sharing tests and copy-cost accounting).
  size_t num_segments() const { return segments_.size(); }
  const CsrSegmentPtr& segment(size_t i) const { return segments_[i]; }

  NeighborSpan OutNeighbors(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.out_targets.data() + s.out_offsets[l],
            s.out_offsets[l + 1] - s.out_offsets[l]};
  }
  NeighborSpan InNeighbors(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.in_sources.data() + s.in_offsets[l],
            s.in_offsets[l + 1] - s.in_offsets[l]};
  }

  /// Out-neighbors of `v` over edges of type `type`, as one contiguous
  /// slice sorted ascending by neighbor id (so membership checks can
  /// binary search). `kInvalidTypeId` means "any type" and returns the
  /// full slice (type-grouped, sorted within each type group).
  NeighborSpan TypedOutEdges(VertexId v, EdgeTypeId type) const {
    if (type == kInvalidTypeId) return OutNeighbors(v);
    const CsrSegment& s = Seg(v);
    return TypedSlice(s.out_type_dir_offsets, s.out_type_dirs, s.out_offsets,
                      s.out_targets, v & kCsrSegmentMask, type);
  }
  NeighborSpan TypedInEdges(VertexId v, EdgeTypeId type) const {
    if (type == kInvalidTypeId) return InNeighbors(v);
    const CsrSegment& s = Seg(v);
    return TypedSlice(s.in_type_dir_offsets, s.in_type_dirs, s.in_offsets,
                      s.in_sources, v & kCsrSegmentMask, type);
  }

  size_t OutDegree(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return s.out_offsets[l + 1] - s.out_offsets[l];
  }
  size_t InDegree(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return s.in_offsets[l + 1] - s.in_offsets[l];
  }

 private:
  const CsrSegment& Seg(VertexId v) const {
    return *segments_[v >> kCsrSegmentShift];
  }

  static NeighborSpan TypedSlice(
      const std::vector<CsrOffset>& dir_offsets,
      const std::vector<CsrSegment::TypeDirEntry>& dirs,
      const std::vector<CsrOffset>& offsets,
      const std::vector<VertexId>& vertices, uint32_t l, EdgeTypeId type) {
    const CsrOffset dir_end = dir_offsets[l + 1];
    for (CsrOffset d = dir_offsets[l]; d < dir_end; ++d) {
      if (dirs[d].type != type) continue;
      const CsrOffset begin = dirs[d].begin;
      const CsrOffset end =
          d + 1 < dir_end ? dirs[d + 1].begin : offsets[l + 1];
      return {vertices.data() + begin, end - begin};
    }
    return {};
  }

  std::vector<CsrSegmentPtr> segments_;  // segments_[i] covers ids i<<shift..
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;      ///< Live edges in the snapshot.
  EdgeId edge_id_space_ = 0;  ///< Source NumEdges() at snapshot time.
};

/// Bounded BFS over a CSR snapshot: distinct vertices within `max_hops`
/// of `source` (excluding the source), like `CountReachable`.
size_t CsrCountReachable(const CsrGraph& g, VertexId source, int max_hops,
                         bool backward = false);

/// Label propagation over a CSR snapshot; semantics identical to
/// `LabelPropagation` (most frequent neighbor label over in+out edges,
/// smaller label on ties, synchronous, early exit).
std::vector<VertexId> CsrLabelPropagation(const CsrGraph& g, int passes);

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_CSR_H_
