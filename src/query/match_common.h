/// \file match_common.h
/// \brief Internal MATCH machinery shared by the per-query executor
/// (`query/executor.cc`) and the fused batch runner
/// (`query/fused_runner.cc`): pattern resolution, plan ordering, the
/// per-candidate acceptance check, the allocation-free row sink, and
/// the CSR traversal primitives (typed-slice gathers,
/// variable-length BFS, filter-edge probes) with their epoch-stamped
/// visited arrays.
///
/// Everything here is deterministic in a way both consumers rely on:
/// `PlanMatchOrder` depends only on the pattern structure and graph
/// statistics (never on predicate constants), gathers enumerate
/// candidates in first-occurrence order of the typed CSR slice, and
/// `RowSet` preserves insertion order — so a fused group run and a solo
/// run explore candidates in the same order and emit rows in the same
/// order.
///
/// This header is internal to `src/query/`; it is not part of the
/// engine-facing API.

#ifndef KASKADE_QUERY_MATCH_COMMON_H_
#define KASKADE_QUERY_MATCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/table.h"

namespace kaskade::query::internal {

/// \brief Cooperative deadline / sibling-cancellation guard shared by
/// every MATCH backend (legacy backtracker, solo CSR runner, parallel
/// CSR workers, fused group runner).
///
/// Reading the clock per expansion would dominate the traversal inner
/// loops, so the guard is *epoch-counted*: `Charge(work)` accumulates
/// traversal progress and only tests the clock (and the shared cancel
/// flag) once at least `kCheckInterval` units have accrued since the
/// last test. A parallel worker whose deadline fires broadcasts through
/// the shared flag so every sibling stops within one check interval.
///
/// The guard never alters enumeration order — it only decides *when* to
/// unwind — so a run that finishes before its deadline is byte-identical
/// to a run with no deadline at all.
class CancelGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Work units between clock tests. Expansion counting charges one
  /// unit per candidate, so this bounds both the clock-read overhead
  /// (<1% of traversal work) and the cancellation latency.
  static constexpr uint64_t kCheckInterval = 256;

  CancelGuard() = default;
  /// `deadline` of time_point{} means "no deadline"; `cancel` may be
  /// null (sequential execution) or shared between sibling workers.
  CancelGuard(Clock::time_point deadline, std::atomic<bool>* cancel)
      : deadline_(deadline),
        has_deadline_(deadline != Clock::time_point{}),
        cancel_(cancel) {}

  bool active() const { return has_deadline_ || cancel_ != nullptr; }

  /// Charges `work` traversal units; tests the stop conditions once per
  /// `kCheckInterval` accrued units. Returns true when the caller must
  /// unwind.
  bool Charge(uint64_t work) {
    if (stopped_) return true;
    if (!active()) return false;
    pending_ += work;
    if (pending_ < kCheckInterval) return false;
    pending_ = 0;
    return CheckNow();
  }

  /// Unconditional stop-condition test (coarse boundaries: query entry,
  /// post-BFS). Cheap when inactive.
  bool CheckNow() {
    if (stopped_) return true;
    if (!active()) return false;
    ++checks_;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      stopped_ = true;
      cancelled_ = true;
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      stopped_ = true;
      expired_ = true;
      // Broadcast so sibling workers stop promptly too.
      if (cancel_ != nullptr) cancel_->store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool stopped() const { return stopped_; }
  /// This guard's own deadline fired.
  bool expired() const { return expired_; }
  /// Stopped because a sibling raised the shared flag, not because this
  /// guard's deadline fired — the sibling carries the real error.
  bool cancelled_by_peer() const { return cancelled_ && !expired_; }
  /// Number of actual clock/flag tests performed (telemetry).
  uint64_t checks() const { return checks_; }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool>* cancel_ = nullptr;
  uint64_t pending_ = 0;
  uint64_t checks_ = 0;
  bool stopped_ = false;
  bool expired_ = false;
  bool cancelled_ = false;
};

inline Status DeadlineExceededError() {
  return Status::DeadlineExceeded("query deadline exceeded");
}

/// Sentinel a parallel worker returns when it stopped because a sibling
/// raised the shared abort flag. The parallel driver replaces it with
/// the originating sibling's real error; it must never escape to a
/// caller.
inline Status CancelledBySiblingError() {
  return Status::Internal("cancelled by sibling worker");
}

inline bool IsCancelledBySibling(const Status& st) {
  return st.code() == StatusCode::kInternal &&
         st.message() == "cancelled by sibling worker";
}

/// Resolved pattern: names mapped to dense slots, types to ids.
struct ResolvedPattern {
  struct Node {
    std::string name;
    graph::VertexTypeId type = graph::kInvalidTypeId;  // kInvalidTypeId = any
    bool has_type_constraint = false;
  };
  struct Edge {
    int from = -1;
    int to = -1;
    graph::EdgeTypeId type = graph::kInvalidTypeId;  // kInvalidTypeId = any
    bool variable_length = false;
    int min_hops = 1;
    int max_hops = 1;
    /// Expansion across this edge needs no per-candidate NodeAccepts:
    /// the free endpoint carries no WHERE conditions and its type
    /// constraint (if any) is already implied — by the edge type's
    /// schema (domain, range) declaration for fixed typed edges, which
    /// `AddEdge` validates on every insert. Forward = `to` free,
    /// backward = `from` free. Used by the CSR backend's hot loop.
    bool trivial_forward = false;
    bool trivial_backward = false;
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;
  /// Conditions indexed by the node slot they constrain.
  std::vector<std::vector<Condition>> node_conditions;

  int SlotOf(const std::string& name) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// One step of the evaluation plan.
struct Step {
  enum Kind { kSeed, kEdge } kind;
  int node_slot;
  int edge_index;
};

/// Everything a backend needs to evaluate one MATCH: the resolved
/// pattern, the step plan, the projection, and what the plan guarantees
/// about the rows it emits.
struct ResolvedMatch {
  ResolvedPattern pattern;
  std::vector<Step> plan;
  std::vector<int> return_slots;
  std::vector<Column> columns;
  /// No row can be emitted twice, so the CSR runners append rows without
  /// hashing them. Holds when every node slot is returned (a row is then
  /// the whole binding) and no step repeats a candidate: seeds, gathers
  /// and variable-length expansions enumerate distinct vertices, but the
  /// fused final fixed-length expansion walks the raw typed slice, where
  /// parallel edges repeat a neighbor.
  bool rows_distinct = false;
  /// The top seed's slot is returned, so rows of different top seeds
  /// differ in that column: the parallel and sharded merges concatenate
  /// their per-block or per-seed row ranges instead of deduplicating
  /// across them.
  bool seeds_disjoint = false;
};

Status ResolvePattern(const graph::PropertyGraph& graph,
                      const MatchQuery& match, ResolvedPattern* pattern);

/// Chooses an evaluation order: seed at the node with the smallest
/// candidate count, then repeatedly take an edge with a bound endpoint
/// (connected expansion); falls back to new seeds for disconnected
/// components. Cycle-closing edges come last, as filters. Depends only
/// on the pattern structure and the graph's type statistics — never on
/// predicate constants — so same-shape queries share one plan.
std::vector<Step> PlanMatchOrder(const graph::PropertyGraph& graph,
                                 const ResolvedPattern& pattern);

Result<ResolvedMatch> ResolveMatch(const graph::PropertyGraph& graph,
                                   const MatchQuery& match);

/// Type constraint + WHERE conditions for binding `v` to `slot`. Reads
/// each property in place (`VertexPropertyRef`).
bool NodeAccepts(const graph::PropertyGraph& graph,
                 const ResolvedPattern& pattern, size_t slot,
                 graph::VertexId v);

/// The null value an absent property reads as.
inline const graph::PropertyValue kNullProperty;

/// Vertex `v`'s value of `key`, read in place: no copy of a string
/// value. A vertex without the property reads as null, as
/// `PropertyGraph::VertexProperty` does.
inline const graph::PropertyValue& VertexPropertyRef(
    const graph::PropertyGraph& graph, graph::VertexId v,
    const std::string& key) {
  const graph::PropertyValue* value = graph.VertexProperties(v).Find(key);
  return value != nullptr ? *value : kNullProperty;
}

/// splitmix64's finalizer: every input bit reaches every output bit, so
/// the low bits a table index keeps are as spread as the high ones.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash consistent with `PropertyValue::operator==`: numbers hash by
/// their value as a double, so int 7 and double 7.0 meet; -0.0 hashes as
/// 0.0 and every NaN alike. The other types carry a tag so that, say,
/// the string "7" and the int 7 rarely share a hash. Every bit is mixed,
/// so a table may index by the low ones. Shared by SELECT's group table
/// and the fused runner's constant index, which both confirm a hash
/// match with an equality test; inline, since the fused runner calls it
/// once per candidate vertex.
inline uint64_t HashValue(const graph::PropertyValue& v) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    const size_t n = s.size();
    if (n > 16) {
      return Mix64(std::hash<std::string>{}(s) ^ 0x9e3779b97f4a7c15ULL);
    }
    // Up to 16 bytes: the first and the last 8 (overlapping, or one
    // zero-padded word below 8) and the length cover every byte. Three
    // independent multiplies cost a fraction of a byte-wise hash or of
    // two chained `Mix64`s; the final fold carries the well-mixed high
    // bits into the low ones.
    uint64_t head = 0;
    uint64_t tail = 0;
    if (n >= 8) {
      std::memcpy(&head, s.data(), 8);
      std::memcpy(&tail, s.data() + n - 8, 8);
    } else {
      std::memcpy(&head, s.data(), n);
    }
    const uint64_t h = head * 0x9e3779b97f4a7c15ULL ^
                       tail * 0xbf58476d1ce4e5b9ULL ^
                       (n + 1) * 0x94d049bb133111ebULL;
    return h ^ (h >> 32);
  }
  if (v.is_numeric()) {
    double d = v.ToDouble();
    if (d == 0) d = 0;  // folds -0.0
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return Mix64(bits);
  }
  if (v.is_bool()) return Mix64(v.as_bool() ? 0x2545f4914f6cdd1dULL : 1);
  return Mix64(0x632be59bd9b4e019ULL);  // null
}

/// \brief Row sink: flat integer row storage, kept in insertion order.
/// A deduplicating set also keeps an open-addressed index keyed by row
/// contents and drops repeated rows; one built with `deduplicate` false
/// is for rows the plan cannot repeat (`ResolvedMatch::rows_distinct`,
/// `seeds_disjoint`) and only appends. No string keys, no per-row
/// allocation (amortized).
class RowSet {
 public:
  RowSet(size_t width, bool deduplicate)
      : width_(width == 0 ? 1 : width), deduplicate_(deduplicate) {}

  size_t size() const { return num_rows_; }
  const graph::VertexId* row(size_t i) const {
    return data_.data() + i * width_;
  }

  /// Inserts a row of `width` vertex ids; returns true when it is new
  /// (always, when the set does not deduplicate).
  bool Insert(const graph::VertexId* row) {
    if (!deduplicate_) {
      data_.insert(data_.end(), row, row + width_);
      ++num_rows_;
      return true;
    }
    if ((num_rows_ + 1) * 10 >= slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = HashRow(row) & mask;
    while (slots_[i] != 0) {
      if (std::memcmp(this->row(slots_[i] - 1), row,
                      width_ * sizeof(graph::VertexId)) == 0) {
        return false;
      }
      i = (i + 1) & mask;
    }
    data_.insert(data_.end(), row, row + width_);
    ++num_rows_;
    slots_[i] = num_rows_;  // row index + 1; 0 marks an empty slot
    return true;
  }

  /// Inserts rows [begin, end) of `other`, in order: one copy when the
  /// set does not deduplicate.
  void InsertRange(const RowSet& other, size_t begin, size_t end) {
    if (begin == end) return;
    if (!deduplicate_) {
      data_.insert(data_.end(), other.row(begin), other.row(end));
      num_rows_ += end - begin;
      return;
    }
    for (size_t r = begin; r < end; ++r) Insert(other.row(r));
  }

 private:
  uint64_t HashRow(const graph::VertexId* row) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < width_; ++i) {
      uint64_t x = row[i];
      x *= 0x9e3779b97f4a7c15ULL;
      x ^= x >> 29;
      h = (h ^ x) * 0x100000001b3ULL;
    }
    return h ^ (h >> 32);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<uint64_t> bigger(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t r = 0; r < num_rows_; ++r) {
      size_t i = HashRow(row(r)) & mask;
      while (bigger[i] != 0) i = (i + 1) & mask;
      bigger[i] = r + 1;
    }
    slots_ = std::move(bigger);
  }

  size_t width_;
  bool deduplicate_;
  std::vector<graph::VertexId> data_;  ///< Rows, flat, in order.
  std::vector<uint64_t> slots_;  ///< Open-addressed row-index set.
  size_t num_rows_ = 0;
};

/// The result table of a bare MATCH: one `Table` row per row of `rows`,
/// one int cell per vertex id, under `columns`, written straight into the
/// table's cell array. The one place where a MATCH's flat rows become
/// `Table` rows; a SELECT reads the `RowSet` instead.
Table RowSetToTable(std::vector<Column> columns, const RowSet& rows);

/// Per-plan-step reusable buffers: gathered candidates survive across
/// the recursion into deeper steps, so they cannot be shared between
/// steps.
struct StepScratch {
  std::vector<graph::VertexId> candidates;
  std::vector<graph::VertexId> cur;
  std::vector<graph::VertexId> next;
};

/// \brief CSR traversal primitives with epoch-stamped visited arrays:
/// distinct-neighbor gathers, variable-length frontier BFS, and
/// filter-edge probes. Owns the `mark_`/`result_mark_` arrays so inner
/// loops allocate nothing after warmup. Not thread-safe; one instance
/// per runner.
class CsrTraversal {
 public:
  explicit CsrTraversal(const graph::CsrGraph& csr) : csr_(csr) {
    mark_.assign(csr.NumVertices(), 0);
    result_mark_.assign(csr.NumVertices(), 0);
  }

  /// Installs a cancellation guard: the variable-length BFS loops charge
  /// traversal work against it and bail out early when it fires. Results
  /// are then partial — the caller must test `guard->stopped()` after
  /// any BFS call before using them. Null disables the checks.
  void set_guard(CancelGuard* guard) { guard_ = guard; }

  /// Distinct neighbors of `anchor` over edges of `type`, into `out`
  /// (first-occurrence order of the typed CSR slice).
  void GatherDistinctNeighbors(graph::VertexId anchor, graph::EdgeTypeId type,
                               bool forward, std::vector<graph::VertexId>* out);

  /// Variable-length targets as a frontier BFS over typed CSR slices:
  /// vertices at some depth in [min_hops, max_hops] from `start`, into
  /// `s->candidates` — the same (vertex, depth) semantics and the same
  /// order as the legacy evaluator's per-level BFS.
  ///
  /// With `min_hops <= 1` every vertex within `max_hops` has its
  /// shortest distance inside the hop window, so one visited set
  /// (`result_mark_`) serves every level and each vertex is expanded
  /// once. The start vertex stays unmarked at `min_hops == 1`, so a
  /// cycle back to it still makes it a target. A target is first met at
  /// its shortest distance, from a vertex at the level before, so the
  /// order matches the per-level walk. With `min_hops >= 2` a vertex may
  /// count only at a longer walk than its shortest, so each level keeps
  /// its own marks (`mark_`) and `result_mark_` dedups the result.
  void VarLengthTargets(graph::VertexId start, graph::EdgeTypeId type,
                        int min_hops, int max_hops, bool backward,
                        StepScratch* s);

  /// True if some path start->...->end with length in [min,max] exists;
  /// stops the BFS the moment `end` enters the hop window. One visited
  /// set across levels when `min_hops <= 1`, as in `VarLengthTargets`.
  bool VarLengthConnected(graph::VertexId start, graph::VertexId end,
                          graph::EdgeTypeId type, int min_hops, int max_hops,
                          StepScratch* s);

  /// Fixed filter edge: any from->to edge of `type`? Binary-searches
  /// the smaller of the two typed slices (typed slices are sorted by
  /// neighbor id). With a type wildcard the slices are only sorted per
  /// type group, so fall back to a linear scan.
  bool HasFixedEdge(graph::VertexId from, graph::VertexId to,
                    graph::EdgeTypeId type) const;

 private:
  /// Fresh epoch for `mark_` (per-gather / per-BFS-level dedup). The
  /// array is only consulted while one gather runs, and gathers finish
  /// before the recursion descends, so one array serves every step.
  uint32_t NextMark() {
    if (++mark_epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      mark_epoch_ = 1;
    }
    return mark_epoch_;
  }

  /// Fresh epoch for `result_mark_` (whole-BFS result dedup or visited
  /// set; lives across the levels of one variable-length expansion).
  uint32_t NextResultMark() {
    if (++result_epoch_ == 0) {
      std::fill(result_mark_.begin(), result_mark_.end(), 0u);
      result_epoch_ = 1;
    }
    return result_epoch_;
  }

  const graph::CsrGraph& csr_;
  CancelGuard* guard_ = nullptr;
  std::vector<uint32_t> mark_;
  uint32_t mark_epoch_ = 0;
  std::vector<uint32_t> result_mark_;
  uint32_t result_epoch_ = 0;
};

/// The staleness tripwire both CSR backends raise when a snapshot does
/// not match its property graph (generation keying at the engine layer
/// is the real guarantee; this catches misuse).
inline bool CsrSnapshotIsStale(const graph::PropertyGraph& graph,
                               const graph::CsrGraph& csr) {
  return csr.NumVertices() != graph.NumVertices() ||
         csr.NumEdges() != graph.NumLiveEdges() ||
         csr.edge_id_space() != graph.NumEdges();
}

inline Status StaleSnapshotError() {
  return Status::Internal(
      "CSR snapshot is stale relative to its property graph");
}

}  // namespace kaskade::query::internal

#endif  // KASKADE_QUERY_MATCH_COMMON_H_
