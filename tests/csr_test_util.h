// Shared helper: structural equality of two CsrGraph snapshots through
// the public API, used by the patched-vs-fresh differential tests. Two
// snapshots are equal when every per-vertex slice — out- and
// in-neighbors and every typed sub-slice — is identical, which also
// (re-)verifies the sorted-by-neighbor, type-partitioned invariants the
// CSR MATCH backend's binary searches rely on.

#ifndef KASKADE_TESTS_CSR_TEST_UTIL_H_
#define KASKADE_TESTS_CSR_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "graph/csr.h"
#include "graph/property_graph.h"

namespace kaskade::testutil {

inline void ExpectSpansEqual(const graph::NeighborSpan& a,
                             const graph::NeighborSpan& b,
                             const std::string& where) {
  ASSERT_EQ(a.size, b.size) << where;
  for (size_t i = 0; i < a.size; ++i) {
    ASSERT_EQ(a[i], b[i]) << where << " slot " << i;
  }
}

/// Asserts `a` and `b` are indistinguishable snapshots of `g`.
inline void ExpectCsrEqual(const graph::CsrGraph& a, const graph::CsrGraph& b,
                           const graph::PropertyGraph& g,
                           const std::string& context) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices()) << context;
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << context;
  ASSERT_EQ(a.edge_id_space(), b.edge_id_space()) << context;
  const size_t num_edge_types = g.schema().num_edge_types();
  for (graph::VertexId v = 0; v < a.NumVertices(); ++v) {
    const std::string at = context + " vertex " + std::to_string(v);
    ExpectSpansEqual(a.OutNeighbors(v), b.OutNeighbors(v), at + " out");
    ExpectSpansEqual(a.InNeighbors(v), b.InNeighbors(v), at + " in");
    // Typed sub-slices exercise the per-vertex type directories.
    for (size_t t = 0; t < num_edge_types; ++t) {
      const graph::EdgeTypeId type = static_cast<graph::EdgeTypeId>(t);
      ExpectSpansEqual(a.TypedOutEdges(v, type), b.TypedOutEdges(v, type),
                       at + " typed-out " + std::to_string(t));
      ExpectSpansEqual(a.TypedInEdges(v, type), b.TypedInEdges(v, type),
                       at + " typed-in " + std::to_string(t));
    }
    // Invariant check (not just equality): typed slices are sorted
    // ascending by neighbor id so filter edges can binary-search.
    for (size_t t = 0; t < num_edge_types; ++t) {
      graph::NeighborSpan span =
          a.TypedOutEdges(v, static_cast<graph::EdgeTypeId>(t));
      for (size_t i = 1; i < span.size; ++i) {
        ASSERT_LE(span[i - 1], span[i])
            << at << " typed-out slice of type " << t << " unsorted";
      }
    }
  }
}

/// Asserts `a` and `b` hold byte-identical segments: every array of
/// every segment equal element for element, offsets and type-directory
/// `begin`s included. Stricter than `ExpectCsrEqual`, which compares
/// through the accessors: this is the "patched equals `Build` bit for
/// bit" contract of `CsrGraph::PatchSegment`.
inline void ExpectSegmentsIdentical(const graph::CsrGraph& a,
                                    const graph::CsrGraph& b,
                                    const std::string& context) {
  ASSERT_EQ(a.num_segments(), b.num_segments()) << context;
  auto dirs_equal = [](const std::vector<graph::CsrSegment::TypeDirEntry>& x,
                       const std::vector<graph::CsrSegment::TypeDirEntry>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].type != y[i].type || x[i].begin != y[i].begin) return false;
    }
    return true;
  };
  for (size_t i = 0; i < a.num_segments(); ++i) {
    const graph::CsrSegment& s = *a.segment(i);
    const graph::CsrSegment& t = *b.segment(i);
    const std::string at = context + " segment " + std::to_string(i);
    ASSERT_EQ(s.first_vertex, t.first_vertex) << at;
    ASSERT_EQ(s.num_vertices, t.num_vertices) << at;
    ASSERT_EQ(s.out_offsets, t.out_offsets) << at;
    ASSERT_EQ(s.out_targets, t.out_targets) << at;
    ASSERT_EQ(s.in_offsets, t.in_offsets) << at;
    ASSERT_EQ(s.in_sources, t.in_sources) << at;
    ASSERT_EQ(s.out_type_dir_offsets, t.out_type_dir_offsets) << at;
    ASSERT_TRUE(dirs_equal(s.out_type_dirs, t.out_type_dirs)) << at;
    ASSERT_EQ(s.in_type_dir_offsets, t.in_type_dir_offsets) << at;
    ASSERT_TRUE(dirs_equal(s.in_type_dirs, t.in_type_dirs)) << at;
  }
}

}  // namespace kaskade::testutil

#endif  // KASKADE_TESTS_CSR_TEST_UTIL_H_
