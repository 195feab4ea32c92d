/// \file explain.h
/// \brief Human-readable plan explanations (EXPLAIN) for hybrid queries.
///
/// Renders the evaluation strategy the executor will follow — seed scan,
/// expansion steps, relational layers — annotated with the cost model's
/// estimates, so users can see *why* the rewriter preferred a plan
/// (mirrors the role of Neo4j's EXPLAIN in the paper's workflow).

#ifndef KASKADE_QUERY_EXPLAIN_H_
#define KASKADE_QUERY_EXPLAIN_H_

#include <string>

#include "graph/property_graph.h"
#include "graph/stats.h"
#include "query/ast.h"
#include "query/cost.h"

namespace kaskade::query {

/// Renders a multi-line plan for `query` against `graph`, e.g.:
///
/// ```
/// SELECT [2 items, GROUP BY A.pipelineName]          ~1.1x input
///   MATCH
///     seed (q_j1:Job)                                 2,000 vertices
///     expand -[:WRITES_TO]-> (q_f1:File)              x2.0
///     expand -[*0..8]-> (q_f2:File)                   8 graph sweeps
///     expand -[:IS_READ_BY]-> (q_j2:Job)              x1.0
///     rows: hash-deduplicated
///   estimated cost: 3.9e+08
/// ```
///
/// The MATCH lines follow the executor's plan (`PlanMatchOrder`): the
/// seed is the node with the fewest candidates, not necessarily the
/// first one written, and each step says its direction: `-[...]->
/// (to)` walks an edge forward from a bound `from`, `<-[...]- (from)`
/// walks it backward from a bound `to`, and `check (a)-[...]->(b)` is
/// a cycle-closing edge between bound nodes. A fixed-length expansion's
/// `xN` is its fan-out at the cost model's degree percentile
/// (`degree_alpha`): the out-degree of `from`'s type when the step walks
/// forward, the in-degree of `to`'s type over the step's edge type when
/// it walks backward. A pattern that does not
/// resolve against `graph` (an unknown type, say) prints `unresolved:`
/// and the reason instead.
///
/// The `rows:` line says whether the CSR runners hash each MATCH row to
/// drop repeats (`hash-deduplicated`) or append rows the plan cannot
/// repeat (`distinct by construction`).
std::string ExplainQuery(const Query& query, const graph::PropertyGraph& graph,
                         const graph::GraphStats& stats,
                         const CostModelOptions& options = {});

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_EXPLAIN_H_
