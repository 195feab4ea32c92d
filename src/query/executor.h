/// \file executor.h
/// \brief Evaluates hybrid queries against a `PropertyGraph`.
///
/// This plays the role of Neo4j's execution engine in the paper's stack
/// (Fig. 2): MATCH patterns run as a backtracking join over the adjacency
/// lists, variable-length paths expand with a level-synchronized BFS, and
/// the relational shell evaluates filters, grouping and aggregates over
/// the match rows.
///
/// Rows are materialized late. The CSR MATCH drivers (sequential,
/// seed-parallel, fused) produce one flat array of distinct `VertexId`
/// rows; a bare MATCH turns it into a `Table` once, at the end, writing
/// its cells straight into the table's single row-major cell array. A
/// SELECT layer reads and writes column batches (vertex columns as id
/// arrays, value columns as `PropertyValue` arrays), built from the
/// MATCH rows without per-row allocation (the legacy backtracker's
/// `Table` is converted at the same boundary), and only the outermost
/// layer's output becomes a `Table`, again cell by cell: building a
/// `Table` allocates nothing per row. Vertex cells hold ids of the graph
/// the executor runs on; mapping a view's ids back to base ids is the
/// engine's job, done in place on the returned `Table`.
///
/// Each SELECT layer is compiled once against its input's schema before
/// its row loop: column references resolve to column indexes (and a
/// vertex-property key), so an unknown column fails whatever the data.
/// GROUP BY keys live in an open-addressed hash table: vertex-column
/// keys as raw ids, the rest as typed values equal under
/// `PropertyValue::operator==` (int 7 and double 7.0 are one group; NaN
/// groups with NaN). Groups are emitted in first-seen order. An
/// aggregate SELECT without GROUP BY yields one row even over no input
/// (COUNT 0, every other item NULL).
///
/// MATCH projection has *set semantics*: the executor returns distinct
/// rows of the returned variables. This is the semantics under which the
/// paper's raw-vs-connector rewrites return identical results (§VII-C
/// "These rewritings are equivalent and produce the same results").
/// The CSR backend hashes a row only when the plan could emit it twice.
/// When every pattern variable is returned and the plan does not end in
/// a fixed-length expansion (which walks parallel edges as they are),
/// each row is a whole binding and no two are equal, so rows are
/// appended as they come. When the top seed's variable is returned, the
/// parallel merge concatenates its per-block row ranges, since rows of
/// different seeds differ in that column.
/// EXPLAIN's `rows:` line says which case a MATCH is in.
///
/// Two MATCH backends share one resolver and planner:
///
/// - The *legacy* backtracker walks `PropertyGraph`'s per-vertex edge-id
///   vectors with an `EdgeRecord` lookup per edge. It is the semantic
///   oracle the differential tests trust, and the baseline the latency
///   bench measures against.
/// - The *CSR* backtracker (selected by constructing the executor with a
///   `CsrGraph` snapshot) expands over type-partitioned contiguous
///   neighbor slices with allocation-free inner loops: epoch-stamped
///   visited arrays instead of per-call hash sets, reusable per-step
///   candidate buffers, and integer row deduplication in place of string
///   keys. It returns exactly the same row set (row *order* may differ,
///   as set semantics permit). With `ExecutorOptions::parallelism > 1`
///   the CSR backend seed-partitions the top-level backtracking across
///   worker threads; the merged output is byte-identical to the
///   sequential CSR run, which therefore remains the oracle.

#ifndef KASKADE_QUERY_EXECUTOR_H_
#define KASKADE_QUERY_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/table.h"

namespace kaskade::query {

/// \brief Cross-query fusion knobs for the engine's batch path: queries
/// in one `ExecuteBatch` whose plans share a canonical shape (identical
/// MATCH topology, edge types, plan order, and WHERE structure — only
/// predicate constants may differ) are run as one shared CSR traversal
/// by `ExecuteFusedMatch` (query/fused_runner.h) instead of N
/// independent ones. Fused output is byte-identical to per-query
/// sequential execution.
struct FusionOptions {
  /// Master switch; off reverts every batch member to the solo path.
  bool enabled = true;
  /// Shape groups smaller than this run as singletons (sharing one
  /// traversal between fewer members than this is not worth the masked
  /// predicate evaluation). Minimum meaningful value is 2.
  size_t min_group_size = 2;
};

/// \brief Executor resource limits and execution knobs.
struct ExecutorOptions {
  /// Abort with ResourceExhausted when a MATCH produces more distinct
  /// rows than this.
  size_t max_rows = 50'000'000;
  /// Worker threads for the top-level MATCH backtracking (CSR backend
  /// only). 1 = sequential — the differential-test oracle; 0 = hardware
  /// concurrency. Parallel output is identical to sequential output,
  /// including row order.
  size_t parallelism = 1;
  /// Cross-query fusion on the engine's batch path.
  FusionOptions fusion;
  /// Cooperative evaluation deadline. `time_point{}` (the default)
  /// disables it. MATCH backends test the clock roughly once per
  /// `internal::CancelGuard::kCheckInterval` traversal expansions —
  /// including inside variable-length BFS levels — and fail with
  /// `kDeadlineExceeded`; parallel workers and fused-group members
  /// cancel their siblings promptly and never publish a torn table. A
  /// query that finishes in time is byte-identical to one run with no
  /// deadline. The relational SELECT shell is only covered by the
  /// entry check and its MATCH input; its own loops are bounded by the
  /// (already row-capped) match output.
  std::chrono::steady_clock::time_point deadline{};
};

/// \brief Measured timing of one execution, filled in by the executor so
/// callers (the engine's workload tracker) see the evaluation cost, not
/// their own lock-acquisition overhead.
struct ExecutionTiming {
  double elapsed_us = 0;  ///< Wall-clock microseconds of evaluation.
  /// Traversal expansions performed by the CSR MATCH backend: candidate
  /// vertices enumerated at seed and expansion steps plus filter-edge
  /// probes. The unit the fusion telemetry compares — a fused group
  /// pays these once where N solo runs pay them N times. 0 for the
  /// legacy (non-CSR) backend and for SELECT shells.
  uint64_t expansions = 0;
  /// Deadline/cancellation clock tests actually performed (epoch-counted,
  /// so orders of magnitude below `expansions`). 0 when no deadline and
  /// no sibling-cancel flag was installed.
  uint64_t deadline_checks = 0;
};

/// \brief Executes parsed or textual queries against one graph.
class QueryExecutor {
 public:
  explicit QueryExecutor(const graph::PropertyGraph* graph,
                         ExecutorOptions options = {})
      : graph_(graph), options_(options) {}

  /// CSR-backed executor: `csr` must be a topology snapshot of `*graph`
  /// (vertex ids shared). MATCH expansion then runs over the snapshot's
  /// typed slices; schema and property access still go to `graph`.
  QueryExecutor(const graph::PropertyGraph* graph, const graph::CsrGraph* csr,
                ExecutorOptions options = {})
      : graph_(graph), csr_(csr), options_(options) {}

  /// Runs a parsed query. When `timing` is non-null it receives the
  /// measured evaluation wall clock (set on success and on failure).
  Result<Table> Execute(const Query& query, ExecutionTiming* timing = nullptr);

  /// Parses and runs `text`; `timing` covers evaluation only, not the
  /// parse.
  Result<Table> ExecuteText(const std::string& text,
                            ExecutionTiming* timing = nullptr);

 private:
  const graph::PropertyGraph* graph_;
  const graph::CsrGraph* csr_ = nullptr;
  ExecutorOptions options_;
};

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_EXECUTOR_H_
