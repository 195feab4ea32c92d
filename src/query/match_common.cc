#include "query/match_common.h"

#include <algorithm>

namespace kaskade::query::internal {

using graph::CsrGraph;
using graph::EdgeTypeId;
using graph::NeighborSpan;
using graph::PropertyGraph;
using graph::VertexId;
using graph::VertexTypeId;

Status ResolvePattern(const PropertyGraph& graph, const MatchQuery& match,
                      ResolvedPattern* pattern) {
  for (const NodePattern& n : match.nodes) {
    ResolvedPattern::Node rn;
    rn.name = n.name;
    if (!n.type.empty()) {
      rn.type = graph.schema().FindVertexType(n.type);
      if (rn.type == graph::kInvalidTypeId) {
        return Status::NotFound("unknown vertex type '" + n.type +
                                "' in pattern");
      }
      rn.has_type_constraint = true;
    }
    pattern->nodes.push_back(std::move(rn));
  }
  for (const EdgePattern& e : match.edges) {
    ResolvedPattern::Edge re;
    re.from = pattern->SlotOf(e.from);
    re.to = pattern->SlotOf(e.to);
    if (re.from < 0 || re.to < 0) {
      return Status::Internal("edge references unresolved node");
    }
    if (!e.type.empty()) {
      re.type = graph.schema().FindEdgeType(e.type);
      if (re.type == graph::kInvalidTypeId) {
        return Status::NotFound("unknown edge type '" + e.type +
                                "' in pattern");
      }
    }
    re.variable_length = e.variable_length;
    re.min_hops = e.variable_length ? e.min_hops : 1;
    re.max_hops = e.variable_length ? e.max_hops : 1;
    pattern->edges.push_back(re);
  }
  pattern->node_conditions.assign(pattern->nodes.size(), {});
  for (const Condition& cond : match.where) {
    int slot = pattern->SlotOf(cond.lhs.base);
    if (slot < 0) {
      return Status::InvalidArgument("WHERE references unknown variable '" +
                                     cond.lhs.base + "'");
    }
    if (cond.lhs.property.empty()) {
      return Status::InvalidArgument(
          "WHERE on a pattern variable must reference a property");
    }
    pattern->node_conditions[slot].push_back(cond);
  }
  // Mark expansions whose per-candidate acceptance check is provably a
  // no-op (see ResolvedPattern::Edge). Variable-length edges only
  // qualify when the endpoint is fully unconstrained: interior hops can
  // cross types, so the edge type's declaration says nothing about the
  // final endpoint.
  auto trivial_endpoint = [&](int slot, VertexTypeId implied_type,
                              bool fixed_typed) {
    const ResolvedPattern::Node& n = pattern->nodes[slot];
    if (!pattern->node_conditions[slot].empty()) return false;
    if (!n.has_type_constraint) return true;
    return fixed_typed && n.type == implied_type;
  };
  for (ResolvedPattern::Edge& re : pattern->edges) {
    const bool fixed_typed =
        !re.variable_length && re.type != graph::kInvalidTypeId;
    const graph::EdgeTypeDecl* decl =
        fixed_typed ? &graph.schema().edge_type(re.type) : nullptr;
    re.trivial_forward = trivial_endpoint(
        re.to, decl != nullptr ? decl->target_type : graph::kInvalidTypeId,
        fixed_typed);
    re.trivial_backward = trivial_endpoint(
        re.from, decl != nullptr ? decl->source_type : graph::kInvalidTypeId,
        fixed_typed);
  }
  return Status::OK();
}

std::vector<Step> PlanMatchOrder(const PropertyGraph& graph,
                                 const ResolvedPattern& pattern) {
  const size_t num_nodes = pattern.nodes.size();
  std::vector<bool> node_planned(num_nodes, false);
  std::vector<bool> edge_planned(pattern.edges.size(), false);
  std::vector<Step> plan;

  auto candidate_count = [&](size_t slot) -> size_t {
    const ResolvedPattern::Node& n = pattern.nodes[slot];
    return n.has_type_constraint ? graph.NumVerticesOfType(n.type)
                                 : graph.NumLiveVertices();
  };

  size_t planned_nodes = 0;
  while (planned_nodes < num_nodes) {
    // Seed: cheapest unplanned node.
    size_t best = num_nodes;
    for (size_t i = 0; i < num_nodes; ++i) {
      if (node_planned[i]) continue;
      if (best == num_nodes || candidate_count(i) < candidate_count(best)) {
        best = i;
      }
    }
    plan.push_back(Step{Step::kSeed, static_cast<int>(best), -1});
    node_planned[best] = true;
    ++planned_nodes;
    // Expand while an edge touches the planned set.
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t e = 0; e < pattern.edges.size(); ++e) {
        if (edge_planned[e]) continue;
        const ResolvedPattern::Edge& edge = pattern.edges[e];
        bool from_in = node_planned[edge.from];
        bool to_in = node_planned[edge.to];
        if (!from_in && !to_in) continue;
        plan.push_back(Step{Step::kEdge, -1, static_cast<int>(e)});
        edge_planned[e] = true;
        if (!from_in) {
          node_planned[edge.from] = true;
          ++planned_nodes;
        }
        if (!to_in) {
          node_planned[edge.to] = true;
          ++planned_nodes;
        }
        progress = true;
      }
    }
  }
  // Any edges left connect already-planned nodes (cycles) — append as
  // filters.
  for (size_t e = 0; e < pattern.edges.size(); ++e) {
    if (!edge_planned[e]) {
      plan.push_back(Step{Step::kEdge, -1, static_cast<int>(e)});
    }
  }
  return plan;
}

namespace {

/// True when the plan's last step expands a fixed-length edge: the CSR
/// runners then emit straight from the typed slice, where parallel edges
/// repeat a neighbor. Replays which slots each step binds; an edge step
/// with both endpoints bound is a filter and binds nothing.
bool EndsInFixedExpansion(const ResolvedMatch& rm) {
  std::vector<bool> bound(rm.pattern.nodes.size(), false);
  for (size_t i = 0; i < rm.plan.size(); ++i) {
    const Step& step = rm.plan[i];
    if (step.kind == Step::kSeed) {
      bound[step.node_slot] = true;
      continue;
    }
    const ResolvedPattern::Edge& edge = rm.pattern.edges[step.edge_index];
    const bool expands = !bound[edge.from] || !bound[edge.to];
    bound[edge.from] = true;
    bound[edge.to] = true;
    if (i + 1 == rm.plan.size()) return expands && !edge.variable_length;
  }
  return false;
}

}  // namespace

Result<ResolvedMatch> ResolveMatch(const PropertyGraph& graph,
                                   const MatchQuery& match) {
  ResolvedMatch rm;
  KASKADE_RETURN_IF_ERROR(ResolvePattern(graph, match, &rm.pattern));
  rm.plan = PlanMatchOrder(graph, rm.pattern);
  for (const ReturnItem& item : match.return_items) {
    int slot = rm.pattern.SlotOf(item.variable);
    if (slot < 0) {
      return Status::InvalidArgument("RETURN references unknown variable '" +
                                     item.variable + "'");
    }
    rm.return_slots.push_back(slot);
    rm.columns.push_back(Column{item.OutputName(), /*is_vertex=*/true});
  }
  std::vector<bool> returned(rm.pattern.nodes.size(), false);
  for (int slot : rm.return_slots) returned[slot] = true;
  const bool all_returned =
      std::find(returned.begin(), returned.end(), false) == returned.end();
  rm.seeds_disjoint = !rm.plan.empty() && returned[rm.plan[0].node_slot];
  rm.rows_distinct =
      !rm.plan.empty() && all_returned && !EndsInFixedExpansion(rm);
  return rm;
}

bool NodeAccepts(const PropertyGraph& graph, const ResolvedPattern& pattern,
                 size_t slot, VertexId v) {
  const ResolvedPattern::Node& n = pattern.nodes[slot];
  if (n.has_type_constraint && graph.VertexType(v) != n.type) return false;
  for (const Condition& cond : pattern.node_conditions[slot]) {
    if (!EvaluateCompare(cond.op,
                         VertexPropertyRef(graph, v, cond.lhs.property),
                         cond.rhs)) {
      return false;
    }
  }
  return true;
}

Table RowSetToTable(std::vector<Column> columns, const RowSet& rows) {
  const size_t width = columns.size();
  Table table(std::move(columns));
  table.Reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const VertexId* row = rows.row(r);
    for (size_t k = 0; k < width; ++k) {
      table.EmplaceCell(static_cast<int64_t>(row[k]));
    }
    table.EndRow();
  }
  return table;
}

void CsrTraversal::GatherDistinctNeighbors(VertexId anchor, EdgeTypeId type,
                                           bool forward,
                                           std::vector<VertexId>* out) {
  out->clear();
  const uint32_t epoch = NextMark();
  NeighborSpan span = forward ? csr_.TypedOutEdges(anchor, type)
                              : csr_.TypedInEdges(anchor, type);
  for (VertexId next : span) {
    if (mark_[next] == epoch) continue;
    mark_[next] = epoch;
    out->push_back(next);
  }
}

void CsrTraversal::VarLengthTargets(VertexId start, EdgeTypeId type,
                                    int min_hops, int max_hops, bool backward,
                                    StepScratch* s) {
  s->candidates.clear();
  const uint32_t result_epoch = NextResultMark();
  if (min_hops == 0) {
    result_mark_[start] = result_epoch;
    s->candidates.push_back(start);
  }
  s->cur.clear();
  s->cur.push_back(start);
  const bool one_visited_set = min_hops <= 1;
  for (int depth = 1; depth <= max_hops && !s->cur.empty(); ++depth) {
    s->next.clear();
    // One visited set: `result_mark_` holds every vertex reached so far,
    // and a level holds exactly the targets first reached at its depth.
    // Otherwise each level marks its own vertices on `mark_`.
    const uint32_t epoch = one_visited_set ? result_epoch : NextMark();
    std::vector<uint32_t>& marks = one_visited_set ? result_mark_ : mark_;
    for (VertexId v : s->cur) {
      NeighborSpan span = backward ? csr_.TypedInEdges(v, type)
                                   : csr_.TypedOutEdges(v, type);
      if (guard_ != nullptr && guard_->Charge(span.size + 1)) return;
      for (VertexId next : span) {
        if (marks[next] == epoch) continue;
        marks[next] = epoch;
        s->next.push_back(next);
        if (!one_visited_set && depth >= min_hops &&
            result_mark_[next] != result_epoch) {
          result_mark_[next] = result_epoch;
          s->candidates.push_back(next);
        }
      }
    }
    if (one_visited_set) {
      s->candidates.insert(s->candidates.end(), s->next.begin(),
                           s->next.end());
    }
    std::swap(s->cur, s->next);
  }
}

bool CsrTraversal::VarLengthConnected(VertexId start, VertexId end,
                                      EdgeTypeId type, int min_hops,
                                      int max_hops, StepScratch* s) {
  if (min_hops == 0 && start == end) return true;
  const bool one_visited_set = min_hops <= 1;
  const uint32_t visited_epoch = one_visited_set ? NextResultMark() : 0;
  s->cur.clear();
  s->cur.push_back(start);
  for (int depth = 1; depth <= max_hops && !s->cur.empty(); ++depth) {
    s->next.clear();
    const uint32_t epoch = one_visited_set ? visited_epoch : NextMark();
    std::vector<uint32_t>& marks = one_visited_set ? result_mark_ : mark_;
    for (VertexId v : s->cur) {
      NeighborSpan span = csr_.TypedOutEdges(v, type);
      if (guard_ != nullptr && guard_->Charge(span.size + 1)) return false;
      for (VertexId next : span) {
        if (marks[next] == epoch) continue;
        marks[next] = epoch;
        if (depth >= min_hops && next == end) return true;
        s->next.push_back(next);
      }
    }
    std::swap(s->cur, s->next);
  }
  return false;
}

bool CsrTraversal::HasFixedEdge(VertexId from, VertexId to,
                                EdgeTypeId type) const {
  NeighborSpan out = csr_.TypedOutEdges(from, type);
  NeighborSpan in = csr_.TypedInEdges(to, type);
  const bool smaller_in = in.size < out.size;
  const NeighborSpan& span = smaller_in ? in : out;
  const VertexId needle = smaller_in ? from : to;
  if (type == graph::kInvalidTypeId) {
    return std::find(span.begin(), span.end(), needle) != span.end();
  }
  return std::binary_search(span.begin(), span.end(), needle);
}

}  // namespace kaskade::query::internal
