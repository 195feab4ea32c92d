#include "query/explain.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "query/match_common.h"

namespace kaskade::query {

namespace {

/// `(name:Type)` for pattern node `slot` (slots follow `match.nodes`).
std::string NodeLabel(const MatchQuery& match, int slot) {
  const NodePattern& node = match.nodes[slot];
  return "(" + node.name + (node.type.empty() ? "" : ":" + node.type) + ")";
}

/// In-degrees over edges of `edge_type` (any type when invalid) of the
/// live vertices `node` admits: the fan-out of walking such an edge
/// backward onto `node`'s peers. `GraphStats` keeps out-degrees only, so
/// EXPLAIN computes this on demand.
graph::TypeDegreeSummary InDegreeSummary(
    const graph::PropertyGraph& graph,
    const internal::ResolvedPattern::Node& node, graph::EdgeTypeId edge_type) {
  std::vector<size_t> degrees;
  for (graph::VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!graph.IsVertexLive(v)) continue;
    if (node.has_type_constraint && graph.VertexType(v) != node.type) continue;
    if (edge_type == graph::kInvalidTypeId) {
      degrees.push_back(graph.InDegree(v));
      continue;
    }
    size_t degree = 0;
    for (graph::EdgeId e : graph.InEdges(v)) {
      degree += graph.Edge(e).type == edge_type;
    }
    degrees.push_back(degree);
  }
  return graph::SummarizeDegrees(node.name, std::move(degrees));
}

void ExplainMatch(const MatchQuery& match, const graph::PropertyGraph& graph,
                  const graph::GraphStats& stats,
                  const CostModelOptions& options, const std::string& indent,
                  std::string* out) {
  *out += indent + "MATCH\n";
  // The steps come from the plan the executor builds for this graph, in
  // its order: it may seed at any node and walk an edge backward.
  Result<internal::ResolvedMatch> resolved =
      internal::ResolveMatch(graph, match);
  if (!resolved.ok()) {
    *out += indent + "  unresolved: " + resolved.status().message() + "\n";
    return;
  }
  const internal::ResolvedPattern& pattern = resolved->pattern;
  std::vector<bool> bound(pattern.nodes.size(), false);
  for (const internal::Step& step : resolved->plan) {
    if (step.kind == internal::Step::kSeed) {
      const internal::ResolvedPattern::Node& node =
          pattern.nodes[step.node_slot];
      const size_t cardinality = node.has_type_constraint
                                     ? graph.NumVerticesOfType(node.type)
                                     : graph.NumLiveVertices();
      *out += indent + "  seed " + NodeLabel(match, step.node_slot) + "  " +
              FormatWithCommas(static_cast<long long>(cardinality)) +
              " vertices\n";
      bound[step.node_slot] = true;
      continue;
    }
    const EdgePattern& edge = match.edges[step.edge_index];
    const internal::ResolvedPattern::Edge& resolved_edge =
        pattern.edges[step.edge_index];
    std::string label = edge.type.empty() ? "" : ":" + edge.type;
    if (edge.variable_length) {
      label += "*" + std::to_string(edge.min_hops) + ".." +
               std::to_string(edge.max_hops);
    }
    if (bound[resolved_edge.from] && bound[resolved_edge.to]) {
      // A cycle-closing edge between bound nodes only filters.
      *out += indent + "  check " + NodeLabel(match, resolved_edge.from) +
              "-[" + label + "]->" + NodeLabel(match, resolved_edge.to) +
              "\n";
      continue;
    }
    const bool forward = bound[resolved_edge.from];
    if (forward) {
      *out += indent + "  expand -[" + label + "]-> " +
              NodeLabel(match, resolved_edge.to) + "  ";
    } else {
      *out += indent + "  expand <-[" + label + "]- " +
              NodeLabel(match, resolved_edge.from) + "  ";
    }
    bound[resolved_edge.from] = true;
    bound[resolved_edge.to] = true;
    if (edge.variable_length) {
      *out += std::to_string(edge.max_hops) + " bounded graph sweeps\n";
      continue;
    }
    // Forward: the out-degree of `from`'s type. Backward: the in-degree
    // of `to`'s type over this edge's type.
    const internal::ResolvedPattern::Node& from =
        pattern.nodes[resolved_edge.from];
    const graph::TypeDegreeSummary summary =
        forward ? (from.has_type_constraint ? stats.ForType(from.type)
                                            : stats.overall())
                : InDegreeSummary(graph, pattern.nodes[resolved_edge.to],
                                  resolved_edge.type);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "x%.1f\n",
                  std::max(summary.Percentile(options.degree_alpha),
                           options.min_expansion));
    *out += buf;
  }
  if (!match.where.empty()) {
    *out += indent + "  filter: " + std::to_string(match.where.size()) +
            " condition(s)\n";
  }
  // Whether the CSR runners hash each row.
  *out += indent + (resolved->rows_distinct
                        ? "  rows: distinct by construction\n"
                        : "  rows: hash-deduplicated\n");
}

void ExplainNode(const Query& query, const graph::PropertyGraph& graph,
                 const graph::GraphStats& stats,
                 const CostModelOptions& options, const std::string& indent,
                 std::string* out) {
  if (query.is_match()) {
    ExplainMatch(query.match(), graph, stats, options, indent, out);
    return;
  }
  const SelectQuery& select = query.select();
  *out += indent + "SELECT [" + std::to_string(select.items.size()) +
          " item(s)";
  if (!select.group_by.empty()) {
    *out += ", GROUP BY ";
    for (size_t i = 0; i < select.group_by.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += select.group_by[i].ToString();
    }
  }
  if (!select.where.empty()) {
    *out += ", WHERE " + std::to_string(select.where.size()) +
            " condition(s)";
  }
  *out += "]\n";
  ExplainNode(*select.from, graph, stats, options, indent + "  ", out);
}

}  // namespace

std::string ExplainQuery(const Query& query, const graph::PropertyGraph& graph,
                         const graph::GraphStats& stats,
                         const CostModelOptions& options) {
  std::string out;
  ExplainNode(query, graph, stats, options, "", &out);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "estimated cost: %.3g\n",
                EstimateEvalCost(query, graph, stats, options));
  out += buf;
  return out;
}

}  // namespace kaskade::query
