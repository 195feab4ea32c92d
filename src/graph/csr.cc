#include "graph/csr.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>

namespace kaskade::graph {

namespace {

template <typename V>
size_t VectorBytes(const V& v) {
  return v.size() * sizeof(typename V::value_type);
}

/// One slice entry as a sort key: edge type in the high half, neighbor
/// in the low half. The canonical per-vertex order is (edge type,
/// neighbor) — grouped by type so a typed expansion is one contiguous
/// slice, sorted by neighbor within the type so filter edges (cycle
/// closings) resolve by binary search. Parallel edges give equal keys,
/// so the order is total on what a row stores.
using SliceKey = uint64_t;
static_assert(sizeof(EdgeTypeId) + sizeof(VertexId) <= sizeof(SliceKey));

/// One side's arrays of a segment as member pointers: `kOut` selects
/// the out-adjacency, else the in-adjacency. Resolved at compile time,
/// so the row writers below address fixed fields of one segment object;
/// a writer that picked its arrays at run time made `Build` about 10%
/// slower.
template <bool kOut>
struct Side {
  static constexpr auto offsets =
      kOut ? &CsrSegment::out_offsets : &CsrSegment::in_offsets;
  static constexpr auto neighbors =
      kOut ? &CsrSegment::out_targets : &CsrSegment::in_sources;
  static constexpr auto dir_offsets =
      kOut ? &CsrSegment::out_type_dir_offsets
           : &CsrSegment::in_type_dir_offsets;
  static constexpr auto dirs =
      kOut ? &CsrSegment::out_type_dirs : &CsrSegment::in_type_dirs;
};

/// A segment for vertex ids `[seg_index << kCsrSegmentShift, ...)` of
/// `g`, with its offset arrays sized; the slices are left for
/// `BuildSide` / `PatchSide` to fill.
std::shared_ptr<CsrSegment> NewSegment(const PropertyGraph& g,
                                       size_t seg_index) {
  auto seg = std::make_shared<CsrSegment>();
  const VertexId first = static_cast<VertexId>(seg_index << kCsrSegmentShift);
  const uint32_t count = static_cast<uint32_t>(
      std::min<size_t>(g.NumVertices() - first, kCsrSegmentVertices));
  seg->first_vertex = first;
  seg->num_vertices = count;
  seg->out_offsets.assign(count + 1, 0);
  seg->out_type_dir_offsets.assign(count + 1, 0);
  seg->in_offsets.assign(count + 1, 0);
  seg->in_type_dir_offsets.assign(count + 1, 0);
  return seg;
}

/// Re-derives local row `l` of one side of `seg` from the graph's
/// adjacency, appending to that side's arrays — so rows must be written
/// in ascending `l`. `BuildSegment` and `PatchSegment` derive every row
/// through here, and a row `CopyRows` copies is a row this wrote
/// earlier, so every row holds the same bytes whichever routine
/// produced the segment. `keys` is scratch reused across rows.
template <bool kOut>
void DeriveRow(const PropertyGraph& g, CsrSegment& seg, uint32_t l,
               std::vector<SliceKey>& keys) {
  using S = Side<kOut>;
  const VertexId v = seg.first_vertex + l;
  // Live edges only; dead vertices have empty adjacency, so they keep
  // (empty) rows and base ids stay valid as CSR indices.
  const std::vector<EdgeId>& ids = kOut ? g.OutEdges(v) : g.InEdges(v);
  keys.clear();
  keys.reserve(ids.size());
  for (EdgeId e : ids) {
    const EdgeRecord& rec = g.Edge(e);
    keys.push_back(SliceKey{rec.type} << 32 |
                   (kOut ? rec.target : rec.source));
  }
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  std::vector<VertexId>& neighbors = seg.*S::neighbors;
  std::vector<CsrSegment::TypeDirEntry>& dirs = seg.*S::dirs;
  for (size_t i = 0; i < keys.size(); ++i) {
    const EdgeTypeId type = static_cast<EdgeTypeId>(keys[i] >> 32);
    if (i == 0 || type != static_cast<EdgeTypeId>(keys[i - 1] >> 32)) {
      dirs.push_back(CsrSegment::TypeDirEntry{
          type, static_cast<CsrOffset>(neighbors.size())});
    }
    neighbors.push_back(static_cast<VertexId>(keys[i]));
  }
  (seg.*S::offsets)[l + 1] = static_cast<CsrOffset>(neighbors.size());
  (seg.*S::dir_offsets)[l + 1] = static_cast<CsrOffset>(dirs.size());
}

/// Block-copies `prev`'s rows `[begin, end)` of one side as local rows
/// `[begin, end)` of `seg`: one contiguous copy per array, offsets and
/// type-directory `begin`s rebased by one constant.
template <bool kOut>
void CopyRows(const CsrSegment& prev, CsrSegment& seg, uint32_t begin,
              uint32_t end) {
  using S = Side<kOut>;
  const std::vector<CsrOffset>& src_offsets = prev.*S::offsets;
  const CsrOffset lo = src_offsets[begin];
  const CsrOffset hi = src_offsets[end];
  std::vector<VertexId>& neighbors = seg.*S::neighbors;
  const std::vector<VertexId>& src_neighbors = prev.*S::neighbors;
  // Unsigned wrap-around makes a negative shift exact too.
  const CsrOffset shift = static_cast<CsrOffset>(neighbors.size()) - lo;
  neighbors.insert(neighbors.end(), src_neighbors.begin() + lo,
                   src_neighbors.begin() + hi);
  std::vector<CsrOffset>& offsets = seg.*S::offsets;
  for (uint32_t l = begin; l < end; ++l) {
    offsets[l + 1] = src_offsets[l + 1] + shift;
  }
  const std::vector<CsrOffset>& src_dir_offsets = prev.*S::dir_offsets;
  const std::vector<CsrSegment::TypeDirEntry>& src_dirs = prev.*S::dirs;
  std::vector<CsrSegment::TypeDirEntry>& dirs = seg.*S::dirs;
  const CsrOffset dir_lo = src_dir_offsets[begin];
  const CsrOffset dir_hi = src_dir_offsets[end];
  const CsrOffset dir_shift = static_cast<CsrOffset>(dirs.size()) - dir_lo;
  for (CsrOffset d = dir_lo; d < dir_hi; ++d) {
    dirs.push_back(
        CsrSegment::TypeDirEntry{src_dirs[d].type, src_dirs[d].begin + shift});
  }
  std::vector<CsrOffset>& dir_offsets = seg.*S::dir_offsets;
  for (uint32_t l = begin; l < end; ++l) {
    dir_offsets[l + 1] = src_dir_offsets[l + 1] + dir_shift;
  }
}

/// Writes every row of one side of `seg` by `DeriveRow`.
template <bool kOut>
void BuildSide(const PropertyGraph& g, CsrSegment& seg,
               std::vector<SliceKey>& keys) {
  for (uint32_t l = 0; l < seg.num_vertices; ++l) {
    DeriveRow<kOut>(g, seg, l, keys);
  }
}

/// Writes one side of `seg` from `prev` (see `CsrGraph::PatchSegment`):
/// maximal clean runs through `CopyRows`, dirty and appended rows
/// through `DeriveRow`. `extra` / `dirs_extra` bound what the
/// re-derived rows add beyond `prev`'s arrays (capacity only).
template <bool kOut>
void PatchSide(const CsrSegment& prev, const PropertyGraph& g,
               CsrSegment& seg, const uint8_t* dirty, size_t extra,
               size_t dirs_extra, std::vector<SliceKey>& keys) {
  using S = Side<kOut>;
  (seg.*S::neighbors).reserve((prev.*S::neighbors).size() + extra);
  (seg.*S::dirs).reserve((prev.*S::dirs).size() + dirs_extra);
  const uint32_t count = seg.num_vertices;
  const uint32_t old = std::min(prev.num_vertices, count);
  for (uint32_t l = 0; l < count;) {
    if (l >= old || dirty[l] != 0) {
      DeriveRow<kOut>(g, seg, l++, keys);
      continue;
    }
    uint32_t end = l + 1;
    while (end < old && dirty[end] == 0) ++end;
    CopyRows<kOut>(prev, seg, l, end);
    l = end;
  }
}

}  // namespace

size_t CsrSegment::ByteSize() const {
  return VectorBytes(out_offsets) + VectorBytes(out_targets) +
         VectorBytes(in_offsets) + VectorBytes(in_sources) +
         VectorBytes(out_type_dir_offsets) + VectorBytes(out_type_dirs) +
         VectorBytes(in_type_dir_offsets) + VectorBytes(in_type_dirs);
}

CsrSegmentPtr CsrGraph::BuildSegment(const PropertyGraph& g, size_t seg_index) {
  std::shared_ptr<CsrSegment> seg = NewSegment(g, seg_index);
  std::vector<SliceKey> keys;
  BuildSide<true>(g, *seg, keys);
  BuildSide<false>(g, *seg, keys);
  return seg;
}

CsrSegmentPtr CsrGraph::PatchSegment(const CsrSegment& prev,
                                     const PropertyGraph& g, size_t seg_index,
                                     const uint8_t* dirty,
                                     size_t* rederived) {
  std::shared_ptr<CsrSegment> seg = NewSegment(g, seg_index);
  const uint32_t count = seg->num_vertices;
  const uint32_t old = std::min(prev.num_vertices, count);
  // Capacity: the previous arrays plus every re-derived row's current
  // degree (an upper bound, so the neighbor arrays never reallocate)
  // and one more type-directory entry per re-derived row.
  size_t out_extra = 0;
  size_t in_extra = 0;
  size_t rows = 0;
  for (uint32_t l = 0; l < count; ++l) {
    if (l < old && dirty[l] == 0) continue;
    out_extra += g.OutEdges(seg->first_vertex + l).size();
    in_extra += g.InEdges(seg->first_vertex + l).size();
    ++rows;
  }
  std::vector<SliceKey> keys;
  PatchSide<true>(prev, g, *seg, dirty, out_extra, rows, keys);
  PatchSide<false>(prev, g, *seg, dirty, in_extra, rows, keys);
  if (rederived != nullptr) *rederived += rows;
  return seg;
}

CsrGraph CsrGraph::Build(const PropertyGraph& g) {
  CsrGraph csr;
  const size_t n = g.NumVertices();
  csr.num_vertices_ = n;
  csr.edge_id_space_ = static_cast<EdgeId>(g.NumEdges());
  const size_t num_segs = CsrSegmentCount(n);
  csr.segments_.reserve(num_segs);
  for (size_t s = 0; s < num_segs; ++s) {
    csr.segments_.push_back(BuildSegment(g, s));
    csr.num_edges_ += csr.segments_.back()->out_targets.size();
  }
  return csr;
}

CsrGraph CsrGraph::FromSegments(std::vector<CsrSegmentPtr> segments,
                                size_t num_vertices, EdgeId edge_id_space) {
  CsrGraph csr;
  csr.segments_ = std::move(segments);
  csr.num_vertices_ = num_vertices;
  csr.edge_id_space_ = edge_id_space;
  for (const CsrSegmentPtr& s : csr.segments_) {
    csr.num_edges_ += s->out_targets.size();
  }
  return csr;
}

size_t CsrCountReachable(const CsrGraph& g, VertexId source, int max_hops,
                         bool backward) {
  if (source >= g.NumVertices() || max_hops <= 0) return 0;
  std::vector<bool> visited(g.NumVertices(), false);
  visited[source] = true;
  std::deque<std::pair<VertexId, int>> frontier{{source, 0}};
  size_t reached = 0;
  while (!frontier.empty()) {
    auto [v, hops] = frontier.front();
    frontier.pop_front();
    if (hops >= max_hops) continue;
    NeighborSpan neighbors = backward ? g.InNeighbors(v) : g.OutNeighbors(v);
    for (VertexId next : neighbors) {
      if (visited[next]) continue;
      visited[next] = true;
      ++reached;
      frontier.emplace_back(next, hops + 1);
    }
  }
  return reached;
}

std::vector<VertexId> CsrLabelPropagation(const CsrGraph& g, int passes) {
  std::vector<VertexId> label(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) label[v] = v;
  std::unordered_map<VertexId, size_t> freq;
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    std::vector<VertexId> next_label(label);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      freq.clear();
      for (VertexId u : g.OutNeighbors(v)) ++freq[label[u]];
      for (VertexId u : g.InNeighbors(v)) ++freq[label[u]];
      if (freq.empty()) continue;
      VertexId best = label[v];
      size_t best_count = 0;
      for (const auto& [candidate, count] : freq) {
        if (count > best_count ||
            (count == best_count && candidate < best)) {
          best = candidate;
          best_count = count;
        }
      }
      if (best != label[v]) {
        next_label[v] = best;
        changed = true;
      }
    }
    label = std::move(next_label);
    if (!changed) break;
  }
  return label;
}

}  // namespace kaskade::graph
