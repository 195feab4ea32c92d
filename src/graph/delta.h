/// \file delta.h
/// \brief `GraphDelta`: a batch of base-graph mutations (vertex/edge
/// insertions and edge removals) applied as one unit.
///
/// The paper's provenance workload is append-only, but a serving system
/// (Graphsurge-style view collections) must absorb arbitrary deltas.
/// A delta is applied in a canonical order — vertex inserts, then edge
/// removals (in list order), then edge inserts — which every consumer
/// (the graph writer here, the view maintainers in `core/maintenance`)
/// agrees on, so incremental view updates account for each path exactly
/// once even when one batch mixes inserts and deletes.

#ifndef KASKADE_GRAPH_DELTA_H_
#define KASKADE_GRAPH_DELTA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"

namespace kaskade::graph {

/// \brief One batch of base-graph mutations.
struct GraphDelta {
  struct VertexInsert {
    std::string type_name;
    PropertyMap properties;
  };
  struct EdgeInsert {
    /// Endpoints may reference vertices created by this delta: the j-th
    /// `vertex_inserts` entry gets id `pre_delta_num_vertices + j`.
    VertexId source;
    VertexId target;
    std::string type_name;
    PropertyMap properties;
  };

  std::vector<VertexInsert> vertex_inserts;
  std::vector<EdgeInsert> edge_inserts;
  /// Ids of pre-delta edges to remove, applied in list order.
  std::vector<EdgeId> edge_removals;

  bool empty() const {
    return vertex_inserts.empty() && edge_inserts.empty() &&
           edge_removals.empty();
  }
  size_t size() const {
    return vertex_inserts.size() + edge_inserts.size() + edge_removals.size();
  }

  /// \name Fluent builders
  /// @{
  GraphDelta& AddVertex(std::string type_name, PropertyMap properties = {});
  GraphDelta& AddEdge(VertexId source, VertexId target, std::string type_name,
                      PropertyMap properties = {});
  GraphDelta& RemoveEdge(EdgeId e);
  /// @}

  /// Coalesces the batch: drops duplicate removals of the same edge id
  /// (keeping the first occurrence's position). Returns the number of
  /// operations dropped. Inserts are never coalesced — a multigraph may
  /// legitimately receive identical parallel edges.
  size_t Coalesce();

  /// Validates the delta against the graph it will be applied to: every
  /// removal names a distinct live edge, every type name exists, every
  /// edge endpoint is a live existing vertex or a vertex this delta
  /// creates, and endpoint types satisfy the edge type's (domain, range)
  /// declaration. A valid delta applies without partial failure.
  Status Validate(const PropertyGraph& graph) const;
};

/// \brief What an applied batch leaves behind for a log that outlives
/// it (the engine's pending-delta log, replayed onto in-flight builds at
/// publish time): the removal ids (in application order) plus insert
/// *counts*. Insert payloads are consumed at application time and never
/// read again — appended elements are rediscovered from id-space
/// growth — so the log must not pin them.
struct DeltaFootprint {
  std::vector<EdgeId> edge_removals;
  size_t edge_inserts = 0;

  /// Captures `delta`'s footprint (copies the removal list).
  explicit DeltaFootprint(const GraphDelta& delta)
      : edge_removals(delta.edge_removals),
        edge_inserts(delta.edge_inserts.size()) {}
};

/// \brief Ids allocated while applying a delta.
struct AppliedDelta {
  std::vector<VertexId> new_vertices;
  std::vector<EdgeId> new_edges;
  size_t removed_edges = 0;
};

/// Applies `delta` to `graph` in canonical order (vertices, removals,
/// inserts). Validates first, so a returned error means the graph was not
/// modified. Callers that dislike duplicate-removal errors should
/// `Coalesce()` beforehand.
Result<AppliedDelta> ApplyDeltaToGraph(PropertyGraph* graph,
                                       const GraphDelta& delta);

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_DELTA_H_
