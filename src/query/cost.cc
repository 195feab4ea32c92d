#include "query/cost.h"

#include <algorithm>
#include <cmath>

namespace kaskade::query {

namespace {

constexpr double kCostCap = 1e30;

/// Expansion factor for one hop out of a node of type `type` (any edge
/// type): its alpha-percentile out-degree, floored by `min_expansion`.
double ExpansionFactor(const graph::GraphStats& stats,
                       graph::VertexTypeId type,
                       const CostModelOptions& options) {
  // Any-type nodes (kInvalidTypeId) and types newer than the statistics
  // (which refresh on drift, not on every write) use the graph-wide
  // summary.
  const graph::TypeDegreeSummary& summary =
      type < stats.per_type().size() ? stats.ForType(type) : stats.overall();
  return std::max(summary.Percentile(options.degree_alpha),
                  options.min_expansion);
}

}  // namespace

double MatchCostOnCounts(const MatchQuery& match, double seeds,
                         double num_vertices, double num_edges,
                         const std::function<double(const std::string&)>&
                             fixed_expansion) {
  // Per-source frontier model with two regimes:
  //  - fixed edges expand by the source type's degree statistic and are
  //    capped by a full edge sweep (set semantics saturates);
  //  - variable-length edges are charged `max_hops` graph sweeps
  //    (n + m each). The paper's workload anchors traversals at a full
  //    vertex-type scan, so in aggregate each BFS level is bounded by —
  //    and at saturation costs — one pass over the adjacency structure.
  //    Charging the bound keeps the model sensitive to exactly the two
  //    levers Kaskade exploits: hop counts (halved by connectors) and
  //    graph size (shrunk by summarizers). Degree-based expansion
  //    estimates for deep paths proved unable to order plans reliably
  //    (they model trees, not visited-set BFS).
  double per_source = 0;
  double frontier = 1;
  double n = std::max(num_vertices, 1.0);
  double m = std::max(num_edges, 1.0);
  for (const EdgePattern& edge : match.edges) {
    if (edge.variable_length) {
      per_source = std::min(per_source + edge.max_hops * (n + m), kCostCap);
      frontier = n;  // saturated
    } else {
      double d = fixed_expansion(edge.from);
      per_source = std::min(per_source + std::min(frontier * d, m), kCostCap);
      frontier = std::min(frontier * d, n);
    }
  }
  return std::min(seeds + seeds * per_source, kCostCap);
}

double EstimateEvalCost(const Query& query, const graph::PropertyGraph& graph,
                        const graph::GraphStats& stats,
                        const CostModelOptions& options) {
  if (query.is_select()) {
    const SelectQuery& select = query.select();
    double inner = EstimateEvalCost(*select.from, graph, stats, options);
    // Filters, grouping and aggregation are linear passes over the inner
    // result, which is bounded by the inner cost.
    return std::min(inner * 1.1, kCostCap);
  }

  const MatchQuery& match = query.match();
  double seeds = 1;
  if (!match.nodes.empty()) {
    const NodePattern& seed = match.nodes.front();
    graph::VertexTypeId type = seed.type.empty()
                                   ? graph::kInvalidTypeId
                                   : graph.schema().FindVertexType(seed.type);
    seeds = type == graph::kInvalidTypeId
                ? static_cast<double>(graph.NumLiveVertices())
                : static_cast<double>(graph.NumVerticesOfType(type));
    seeds = std::max(seeds, 1.0);
  }
  auto fixed_expansion = [&](const std::string& from_node) {
    const NodePattern* from = match.FindNode(from_node);
    graph::VertexTypeId from_type =
        (from != nullptr && !from->type.empty())
            ? graph.schema().FindVertexType(from->type)
            : graph::kInvalidTypeId;
    return ExpansionFactor(stats, from_type, options);
  };
  return MatchCostOnCounts(match, seeds,
                           static_cast<double>(graph.NumLiveVertices()),
                           static_cast<double>(graph.NumLiveEdges()),
                           fixed_expansion);
}

}  // namespace kaskade::query
