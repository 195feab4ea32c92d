/// \file fused_runner.h
/// \brief Cross-query fusion: one shared CSR traversal for a group of
/// same-shape MATCH queries (GraFS-style fusion of concurrent graph
/// analytics, applied to Kaskade's batch path).
///
/// A *shape group* is a set of MATCH queries with identical topology,
/// node/edge types, WHERE structure (same lhs property and operator per
/// conjunct, in the same order), and RETURN items — only the predicate
/// *constants* may differ (`core/planner.h` computes the grouping key).
/// Because `PlanMatchOrder` never looks at constants, every member
/// shares one plan, one seed enumeration, and one candidate gather per
/// expansion step. The fused runner walks that shared tree exactly once,
/// carrying a per-member *alive bitmask*: binding a vertex to a slot
/// reads each conjunct's property value once, in place, and clears the
/// bits of members the binding fails, so a member that fails a constant
/// check stops paying for deeper expansions; a subtree with no alive
/// member is pruned outright. Rows are split per member at emit time.
///
/// An `=` conjunct is one hash probe per binding, not one comparison
/// per member: the group indexes its members' constants once, mapping
/// each constant to the mask of members that carry it, under a hash
/// that agrees with `PropertyValue::operator==` (ints and doubles meet
/// by value, -0.0 meets 0.0; a NaN constant matches nothing; a null
/// constant matches a vertex without the property). A seed scan thus
/// costs about one solo lookup's scan however large the group. The
/// other operators compare the value against each alive member's
/// constant.
///
/// Identity guarantee: each member's output table is byte-identical to
/// its solo sequential run — same rows, same order. A member's solo DFS
/// explores exactly the subtree where its own predicates pass; the fused
/// DFS explores the union of those subtrees in the same candidate order,
/// and member m emits precisely at the leaves where its bit survived
/// every binding — the same leaves, in the same depth-first order. The
/// differential suite (`tests/differential_test.cc`) enforces this
/// across mutation streams.

#ifndef KASKADE_QUERY_FUSED_RUNNER_H_
#define KASKADE_QUERY_FUSED_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/table.h"

namespace kaskade::query {

/// \brief What one fused group execution cost, for engine telemetry.
struct FusedGroupStats {
  /// Traversal expansions of the one shared walk (same unit as
  /// `ExecutionTiming::expansions`) — what N solo runs would each have
  /// paid separately.
  uint64_t expansions = 0;
  /// Wall clock of the whole group (microseconds).
  double elapsed_us = 0;
  /// Deadline clock tests the shared traversal performed (see
  /// `ExecutionTiming::deadline_checks`).
  uint64_t deadline_checks = 0;
};

/// Runs `members` — same-shape MATCH queries — as one shared traversal
/// over `csr` (a topology snapshot of `graph`) and returns one result
/// per member, in member order. Per-member failures (e.g. a member
/// exceeding `options.max_rows`) are per-slot errors and do not abort
/// the other members; group-level failures (stale snapshot, resolution
/// errors — shape-determined, so every solo run would hit them too)
/// fill every slot with the same error. When `options.deadline` fires
/// mid-traversal the shared walk stops at the next check and every
/// member that has not already produced a complete result fails with
/// `kDeadlineExceeded` — a partial table is never returned. Sequential;
/// the caller decides how groups are spread across batch workers.
std::vector<Result<Table>> ExecuteFusedMatch(
    const graph::PropertyGraph& graph, const graph::CsrGraph& csr,
    const std::vector<const MatchQuery*>& members,
    const ExecutorOptions& options, FusedGroupStats* stats = nullptr);

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_FUSED_RUNNER_H_
