#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <unordered_set>

#include "query/match_common.h"
#include "query/parser.h"

namespace kaskade::query {

using graph::CsrGraph;
using graph::EdgeId;
using graph::EdgeTypeId;
using graph::NeighborSpan;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;
using graph::VertexTypeId;

using internal::CancelGuard;
using internal::CsrTraversal;
using internal::HashValue;
using internal::Mix64;
using internal::NodeAccepts;
using internal::ResolvedMatch;
using internal::ResolvedPattern;
using internal::ResolveMatch;
using internal::RowSet;
using internal::Step;
using internal::StepScratch;

namespace {

// ---------------------------------------------------------------------------
// Legacy MATCH backend: backtracking over PropertyGraph adjacency lists.
// Kept structurally intact as the semantic oracle (and the bench
// baseline) for the CSR backend below.
// ---------------------------------------------------------------------------

/// \brief Backtracking pattern matcher with set-semantics projection.
class MatchEvaluator {
 public:
  MatchEvaluator(const PropertyGraph& graph, const ExecutorOptions& options)
      : graph_(graph),
        options_(options),
        guard_(options.deadline, /*cancel=*/nullptr) {}

  Result<Table> Run(const MatchQuery& match) {
    KASKADE_ASSIGN_OR_RETURN(rm_, ResolveMatch(graph_, match));
    table_ = Table(std::move(rm_.columns));
    binding_.assign(rm_.pattern.nodes.size(), graph::kInvalidId);
    Status st = Backtrack(0);
    if (!st.ok()) return st;
    return std::move(table_);
  }

  uint64_t deadline_checks() const { return guard_.checks(); }

 private:
  /// Vertices reachable from `start` in exactly d hops for some d in
  /// [min_hops, max_hops], following edges of `type` (reverse when
  /// `backward`). Level-synchronized BFS so all reachable depths are seen
  /// (bipartite graphs reach vertices at several parities).
  std::vector<VertexId> VarLengthTargets(VertexId start, EdgeTypeId type,
                                         int min_hops, int max_hops,
                                         bool backward) {
    std::vector<VertexId> result;
    std::unordered_set<VertexId> result_set;
    if (min_hops == 0) {
      result.push_back(start);
      result_set.insert(start);
    }
    // Per-level frontiers: a vertex may recur at several depths (e.g. at
    // both parities of a bipartite lineage graph), and membership in
    // [min_hops, max_hops] is decided per depth, so dedup is on
    // (vertex, depth) rather than vertex.
    std::vector<std::vector<VertexId>> levels(max_hops + 1);
    levels[0] = {start};
    std::unordered_set<uint64_t> visited_at_level;
    visited_at_level.insert(static_cast<uint64_t>(start) << 32);
    for (int depth = 1; depth <= max_hops; ++depth) {
      std::vector<VertexId>& prev = levels[depth - 1];
      if (prev.empty()) break;
      std::vector<VertexId>& cur = levels[depth];
      for (VertexId v : prev) {
        const std::vector<EdgeId>& incident =
            backward ? graph_.InEdges(v) : graph_.OutEdges(v);
        if (guard_.Charge(incident.size() + 1)) return result;
        for (EdgeId e : incident) {
          const graph::EdgeRecord& rec = graph_.Edge(e);
          if (type != graph::kInvalidTypeId && rec.type != type) continue;
          VertexId next = backward ? rec.source : rec.target;
          uint64_t key = (static_cast<uint64_t>(next) << 32) |
                         static_cast<uint64_t>(depth);
          if (!visited_at_level.insert(key).second) continue;
          cur.push_back(next);
          if (depth >= min_hops && result_set.insert(next).second) {
            result.push_back(next);
          }
        }
      }
    }
    return result;
  }

  /// True if some path start->...->end with length in [min,max] exists.
  /// The BFS stops the moment `end` is reached inside the hop window,
  /// instead of materializing every target and scanning for `end`.
  bool VarLengthConnected(VertexId start, VertexId end, EdgeTypeId type,
                          int min_hops, int max_hops) {
    if (min_hops == 0 && start == end) return true;
    std::vector<VertexId> cur{start};
    std::vector<VertexId> next;
    std::unordered_set<VertexId> level_seen;
    for (int depth = 1; depth <= max_hops && !cur.empty(); ++depth) {
      next.clear();
      level_seen.clear();
      for (VertexId v : cur) {
        if (guard_.Charge(graph_.OutEdges(v).size() + 1)) return false;
        for (EdgeId e : graph_.OutEdges(v)) {
          const graph::EdgeRecord& rec = graph_.Edge(e);
          if (type != graph::kInvalidTypeId && rec.type != type) continue;
          VertexId n = rec.target;
          if (!level_seen.insert(n).second) continue;
          if (depth >= min_hops && n == end) return true;
          next.push_back(n);
        }
      }
      std::swap(cur, next);
    }
    return false;
  }

  Status EmitRow() {
    if (guard_.Charge(1)) return internal::DeadlineExceededError();
    std::string key;
    for (int slot : rm_.return_slots) {
      key += std::to_string(binding_[slot]);
      key += ",";
    }
    if (!distinct_rows_.insert(key).second) return Status::OK();
    if (table_.num_rows() >= options_.max_rows) {
      return Status::ResourceExhausted("MATCH row limit exceeded");
    }
    for (int slot : rm_.return_slots) {
      table_.EmplaceCell(static_cast<int64_t>(binding_[slot]));
    }
    table_.EndRow();
    return Status::OK();
  }

  Status Backtrack(size_t step_index) {
    if (step_index == rm_.plan.size()) return EmitRow();
    const Step& step = rm_.plan[step_index];
    const ResolvedPattern& pattern = rm_.pattern;
    if (step.kind == Step::kSeed) {
      size_t slot = static_cast<size_t>(step.node_slot);
      if (binding_[slot] != graph::kInvalidId) {
        return Backtrack(step_index + 1);
      }
      const ResolvedPattern::Node& n = pattern.nodes[slot];
      if (n.has_type_constraint) {
        for (VertexId v : graph_.VerticesOfType(n.type)) {
          if (guard_.Charge(1)) return internal::DeadlineExceededError();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      } else {
        for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
          if (!graph_.IsVertexLive(v)) continue;
          if (guard_.Charge(1)) return internal::DeadlineExceededError();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      }
      return Status::OK();
    }

    const ResolvedPattern::Edge& edge = pattern.edges[step.edge_index];
    VertexId from = binding_[edge.from];
    VertexId to = binding_[edge.to];
    bool from_bound = from != graph::kInvalidId;
    bool to_bound = to != graph::kInvalidId;

    if (from_bound && to_bound) {
      // Filter edge (closes a cycle).
      bool connected =
          edge.variable_length
              ? VarLengthConnected(from, to, edge.type, edge.min_hops,
                                   edge.max_hops)
              : [&] {
                  for (EdgeId e : graph_.OutEdges(from)) {
                    const graph::EdgeRecord& rec = graph_.Edge(e);
                    if (rec.target == to &&
                        (edge.type == graph::kInvalidTypeId ||
                         rec.type == edge.type)) {
                      return true;
                    }
                  }
                  return false;
                }();
      if (guard_.stopped()) return internal::DeadlineExceededError();
      if (connected) return Backtrack(step_index + 1);
      return Status::OK();
    }

    const bool forward = from_bound;  // else expand backward from `to`
    size_t free_slot = forward ? edge.to : edge.from;
    VertexId anchor = forward ? from : to;

    if (edge.variable_length) {
      std::vector<VertexId> targets = VarLengthTargets(
          anchor, edge.type, edge.min_hops, edge.max_hops, !forward);
      if (guard_.stopped()) return internal::DeadlineExceededError();
      for (VertexId v : targets) {
        if (!NodeAccepts(graph_, pattern, free_slot, v)) continue;
        binding_[free_slot] = v;
        KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
        binding_[free_slot] = graph::kInvalidId;
      }
      return Status::OK();
    }

    const std::vector<EdgeId>& incident =
        forward ? graph_.OutEdges(anchor) : graph_.InEdges(anchor);
    // Distinct neighbor set: parallel edges must not multiply rows under
    // set semantics, and NodeAccepts can be expensive.
    std::unordered_set<VertexId> tried;
    for (EdgeId e : incident) {
      if (guard_.Charge(1)) return internal::DeadlineExceededError();
      const graph::EdgeRecord& rec = graph_.Edge(e);
      if (edge.type != graph::kInvalidTypeId && rec.type != edge.type) continue;
      VertexId next = forward ? rec.target : rec.source;
      if (!tried.insert(next).second) continue;
      if (!NodeAccepts(graph_, pattern, free_slot, next)) continue;
      binding_[free_slot] = next;
      KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
      binding_[free_slot] = graph::kInvalidId;
    }
    return Status::OK();
  }

  const PropertyGraph& graph_;
  ExecutorOptions options_;
  CancelGuard guard_;
  ResolvedMatch rm_;
  std::vector<VertexId> binding_;
  std::unordered_set<std::string> distinct_rows_;
  Table table_;
};

// ---------------------------------------------------------------------------
// CSR MATCH backend
// ---------------------------------------------------------------------------

/// \brief One backtracking worker over a CSR snapshot: owns the binding,
/// the traversal primitives (epoch-stamped visited arrays), the per-step
/// candidate buffers, and its (partial) row set, which hashes rows only
/// when the plan can repeat one (`ResolvedMatch::rows_distinct`). Inner
/// loops allocate nothing after warmup.
class CsrMatchRunner {
 public:
  /// `deadline` (time_point{} = none) and `abort` feed the runner's
  /// CancelGuard: a parallel worker shares `abort` with its siblings so
  /// the first stop reason (row limit, deadline) cancels the whole run.
  CsrMatchRunner(const PropertyGraph& graph, const CsrGraph& csr,
                 const ResolvedMatch& rm, size_t max_rows,
                 CancelGuard::Clock::time_point deadline,
                 std::atomic<bool>* abort)
      : graph_(graph),
        csr_(csr),
        rm_(rm),
        max_rows_(max_rows),
        guard_(deadline, abort),
        traversal_(csr),
        rows_(rm.return_slots.size(), /*deduplicate=*/!rm.rows_distinct) {
    binding_.assign(rm.pattern.nodes.size(), graph::kInvalidId);
    scratch_.resize(rm.plan.size());
    row_buf_.assign(std::max<size_t>(1, rm.return_slots.size()), 0);
    traversal_.set_guard(&guard_);
  }

  /// Runs the plan for top-level seed candidates `seeds[begin, end)`
  /// (the first plan step is always a seed). Emitted rows accumulate in
  /// `rows()` in enumeration order.
  Status RunSeedRange(const std::vector<VertexId>& seeds, size_t begin,
                      size_t end) {
    const size_t slot = static_cast<size_t>(rm_.plan[0].node_slot);
    for (size_t i = begin; i < end; ++i) {
      if (guard_.Charge(1)) return StopStatus();
      VertexId v = seeds[i];
      ++expansions_;
      if (!NodeAccepts(graph_, rm_.pattern, slot, v)) continue;
      binding_[slot] = v;
      Status st = Backtrack(1);
      binding_[slot] = graph::kInvalidId;
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  const RowSet& rows() const { return rows_; }
  RowSet TakeRows() { return std::move(rows_); }
  /// Candidates enumerated + filter-edge probes (see
  /// `ExecutionTiming::expansions`).
  uint64_t expansions() const { return expansions_; }
  /// Clock/flag tests this runner's guard performed.
  uint64_t deadline_checks() const { return guard_.checks(); }

 private:
  /// Error to surface once the guard fires. A peer-cancelled worker
  /// returns the sibling sentinel, which the parallel driver swaps for
  /// the originating worker's real error.
  Status StopStatus() const {
    return guard_.expired() ? internal::DeadlineExceededError()
                            : internal::CancelledBySiblingError();
  }

  Status EmitRow() {
    if (guard_.Charge(1)) return StopStatus();
    const size_t width = rm_.return_slots.size();
    for (size_t k = 0; k < width; ++k) {
      row_buf_[k] = binding_[rm_.return_slots[k]];
    }
    if (!rows_.Insert(row_buf_.data())) return Status::OK();
    if (rows_.size() > max_rows_) {
      return Status::ResourceExhausted("MATCH row limit exceeded");
    }
    return Status::OK();
  }

  Status Backtrack(size_t step_index) {
    if (step_index == rm_.plan.size()) return EmitRow();
    const Step& step = rm_.plan[step_index];
    const ResolvedPattern& pattern = rm_.pattern;
    if (step.kind == Step::kSeed) {
      // Secondary seed (disconnected pattern component).
      size_t slot = static_cast<size_t>(step.node_slot);
      if (binding_[slot] != graph::kInvalidId) {
        return Backtrack(step_index + 1);
      }
      const ResolvedPattern::Node& n = pattern.nodes[slot];
      if (n.has_type_constraint) {
        for (VertexId v : graph_.VerticesOfType(n.type)) {
          ++expansions_;
          if (guard_.Charge(1)) return StopStatus();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      } else {
        for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
          if (!graph_.IsVertexLive(v)) continue;
          ++expansions_;
          if (guard_.Charge(1)) return StopStatus();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      }
      return Status::OK();
    }

    const ResolvedPattern::Edge& edge = pattern.edges[step.edge_index];
    VertexId from = binding_[edge.from];
    VertexId to = binding_[edge.to];
    bool from_bound = from != graph::kInvalidId;
    bool to_bound = to != graph::kInvalidId;
    StepScratch* scratch = &scratch_[step_index];

    if (from_bound && to_bound) {
      // Filter edge (closes a cycle).
      ++expansions_;
      if (guard_.Charge(1)) return StopStatus();
      bool connected =
          edge.variable_length
              ? traversal_.VarLengthConnected(from, to, edge.type,
                                              edge.min_hops, edge.max_hops,
                                              scratch)
              : traversal_.HasFixedEdge(from, to, edge.type);
      if (guard_.stopped()) return StopStatus();
      if (connected) return Backtrack(step_index + 1);
      return Status::OK();
    }

    const bool forward = from_bound;  // else expand backward from `to`
    size_t free_slot = forward ? edge.to : edge.from;
    VertexId anchor = forward ? from : to;
    const bool trivial = forward ? edge.trivial_forward : edge.trivial_backward;

    if (!edge.variable_length && step_index + 1 == rm_.plan.size()) {
      // Fused final expansion: the recursion below this step is just
      // EmitRow, and the row set deduplicates (a plan ending here is
      // never `rows_distinct`), so duplicate neighbors (parallel edges)
      // need no expansion-level dedup — iterate the typed slice
      // directly, no gather, no buffers. First-occurrence emission order
      // is unchanged.
      NeighborSpan span = forward ? csr_.TypedOutEdges(anchor, edge.type)
                                  : csr_.TypedInEdges(anchor, edge.type);
      Status st = Status::OK();
      expansions_ += span.size;
      if (guard_.Charge(span.size)) return StopStatus();
      for (VertexId v : span) {
        if (!trivial && !NodeAccepts(graph_, pattern, free_slot, v)) continue;
        binding_[free_slot] = v;
        st = EmitRow();
        if (!st.ok()) break;
      }
      binding_[free_slot] = graph::kInvalidId;
      return st;
    }

    if (edge.variable_length) {
      traversal_.VarLengthTargets(anchor, edge.type, edge.min_hops,
                                  edge.max_hops, !forward, scratch);
    } else {
      // Distinct neighbors: parallel edges must not multiply rows under
      // set semantics, NodeAccepts can be expensive, and the subtree
      // below this step would otherwise be re-explored per duplicate.
      traversal_.GatherDistinctNeighbors(anchor, edge.type, forward,
                                         &scratch->candidates);
    }
    expansions_ += scratch->candidates.size();
    if (guard_.Charge(scratch->candidates.size()) || guard_.stopped()) {
      return StopStatus();
    }
    for (VertexId v : scratch->candidates) {
      if (!trivial && !NodeAccepts(graph_, pattern, free_slot, v)) continue;
      binding_[free_slot] = v;
      KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
      binding_[free_slot] = graph::kInvalidId;
    }
    return Status::OK();
  }

  const PropertyGraph& graph_;
  const CsrGraph& csr_;
  const ResolvedMatch& rm_;
  const size_t max_rows_;
  CancelGuard guard_;
  CsrTraversal traversal_;
  RowSet rows_;
  std::vector<VertexId> binding_;
  std::vector<StepScratch> scratch_;
  std::vector<VertexId> row_buf_;
  uint64_t expansions_ = 0;
};

/// A MATCH's distinct rows, flat and in emission order, with the columns
/// they fill. Every CSR driver hands its result back in this form.
struct MatchRows {
  std::vector<Column> columns;
  RowSet rows;
};

/// \brief CSR MATCH driver: resolves and plans once, then runs the
/// backtracking sequentially, seed-partitioned across worker threads, or
/// scattered over engine shards.
///
/// Parallel determinism: the top-level seed candidates are materialized
/// once in the same order the sequential run enumerates them, split
/// into contiguous blocks claimed off an atomic counter, and each
/// block's rows are merged back in block order with global
/// first-occurrence dedup. Workers claim blocks in increasing order, so
/// a worker-local duplicate is always preceded by its first occurrence
/// in an earlier block — the merged table is therefore identical to the
/// sequential table, row order included. When the top seed's slot is
/// returned (`ResolvedMatch::seeds_disjoint`), no row of one block can
/// recur in another, so the merge concatenates the block ranges.
class CsrMatchEvaluator {
 public:
  CsrMatchEvaluator(const PropertyGraph& graph, const CsrGraph& csr,
                    const ExecutorOptions& options)
      : graph_(graph), csr_(csr), options_(options) {}

  Result<MatchRows> Run(const MatchQuery& match, ExecutionTiming* stats) {
    KASKADE_ASSIGN_OR_RETURN(ResolvedMatch rm, ResolveMatch(graph_, match));
    std::vector<VertexId> seeds = TopSeedCandidates(rm);

    size_t workers =
        options_.parallelism == 0
            ? std::max(1u, std::thread::hardware_concurrency())
            : options_.parallelism;
    workers = std::min(workers, std::max<size_t>(1, seeds.size()));

    if (options_.shards > 1) {
      return RunSharded(&rm, seeds, workers, stats);
    }

    if (workers <= 1) {
      CsrMatchRunner runner(graph_, csr_, rm, options_.max_rows,
                            options_.deadline, /*abort=*/nullptr);
      Status st = runner.RunSeedRange(seeds, 0, seeds.size());
      stats->expansions += runner.expansions();
      stats->deadline_checks += runner.deadline_checks();
      KASKADE_RETURN_IF_ERROR(st);
      return MatchRows{std::move(rm.columns), runner.TakeRows()};
    }
    return RunParallel(&rm, seeds, workers, stats);
  }

 private:
  static constexpr uint32_t kUnclaimed = ~0u;

  /// Candidates for the first plan step (always a seed), in the exact
  /// order a sequential run enumerates them.
  std::vector<VertexId> TopSeedCandidates(const ResolvedMatch& rm) const {
    const ResolvedPattern::Node& n =
        rm.pattern.nodes[static_cast<size_t>(rm.plan[0].node_slot)];
    if (n.has_type_constraint) return graph_.VerticesOfType(n.type);
    std::vector<VertexId> all;
    all.reserve(graph_.NumLiveVertices());
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      if (graph_.IsVertexLive(v)) all.push_back(v);
    }
    return all;
  }

  /// Scatter-gather over engine shards: seeds are partitioned by
  /// `ShardOfVertex` (relative order preserved), one runner per shard
  /// walks its seeds recording the row span each seed produced, and the
  /// gather replays the spans in the *original* seed order with global
  /// first-occurrence dedup. Byte-identity with the unsharded run: the
  /// first overall emitter of a row is its earliest-emitting seed k; no
  /// earlier seed in k's shard emitted it (they run before k on the same
  /// runner), so k's span contains it, and the seed-order gather meets
  /// it first at k — exactly where the sequential run first emits it.
  /// Workers claim whole shards off an atomic counter (cross-shard
  /// parallelism); `workers == 1` runs the shards inline. With
  /// `seeds_disjoint` no two seeds share a row, and the gather
  /// concatenates the spans.
  Result<MatchRows> RunSharded(ResolvedMatch* rm,
                           const std::vector<VertexId>& seeds, size_t workers,
                           ExecutionTiming* stats) const {
    const size_t shards = options_.shards;
    struct SeedSpan {
      uint32_t shard = 0;
      size_t begin_row = 0;
      size_t end_row = 0;
    };
    std::vector<SeedSpan> spans(seeds.size());
    std::vector<std::vector<size_t>> shard_seeds(shards);
    for (size_t i = 0; i < seeds.size(); ++i) {
      const uint32_t s = graph::ShardOfVertex(seeds[i], shards);
      spans[i].shard = s;
      shard_seeds[s].push_back(i);
    }

    std::vector<std::unique_ptr<CsrMatchRunner>> runners(shards);
    std::vector<Status> statuses(shards, Status::OK());
    std::atomic<bool> abort{false};
    auto run_shard = [&](size_t s) {
      runners[s] = std::make_unique<CsrMatchRunner>(
          graph_, csr_, *rm, options_.max_rows, options_.deadline, &abort);
      for (size_t i : shard_seeds[s]) {
        if (abort.load(std::memory_order_relaxed)) {
          statuses[s] = internal::CancelledBySiblingError();
          return;
        }
        spans[i].begin_row = runners[s]->rows().size();
        Status st = runners[s]->RunSeedRange(seeds, i, i + 1);
        spans[i].end_row = runners[s]->rows().size();
        if (!st.ok()) {
          statuses[s] = st;
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    const size_t pool_size = std::min(workers, shards);
    if (pool_size <= 1) {
      for (size_t s = 0; s < shards && !abort.load(std::memory_order_relaxed);
           ++s) {
        run_shard(s);
      }
    } else {
      std::atomic<size_t> next_shard{0};
      auto work = [&] {
        while (!abort.load(std::memory_order_relaxed)) {
          size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
          if (s >= shards) break;
          run_shard(s);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(pool_size);
      for (size_t w = 0; w < pool_size; ++w) pool.emplace_back(work);
      for (std::thread& t : pool) t.join();
    }

    for (const auto& runner : runners) {
      if (runner != nullptr) {
        stats->expansions += runner->expansions();
        stats->deadline_checks += runner->deadline_checks();
      }
    }
    // Prefer the first originating error in shard order, exactly as the
    // parallel driver prefers it in worker order: row-limit stays
    // row-limit and deadline stays deadline regardless of which shard
    // noticed first.
    for (const Status& st : statuses) {
      if (!st.ok() && !internal::IsCancelledBySibling(st)) return st;
    }
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }

    // Gather in original seed order with global first-occurrence dedup.
    RowSet merged(rm->return_slots.size(),
                  /*deduplicate=*/!rm->seeds_disjoint);
    for (size_t i = 0; i < seeds.size(); ++i) {
      const SeedSpan& sp = spans[i];
      if (runners[sp.shard] == nullptr) {
        return Status::Internal("unprocessed shard without an error");
      }
      merged.InsertRange(runners[sp.shard]->rows(), sp.begin_row,
                         sp.end_row);
      if (merged.size() > options_.max_rows) {
        return Status::ResourceExhausted("MATCH row limit exceeded");
      }
    }
    return MatchRows{std::move(rm->columns), std::move(merged)};
  }

  Result<MatchRows> RunParallel(ResolvedMatch* rm,
                            const std::vector<VertexId>& seeds, size_t workers,
                            ExecutionTiming* stats) const {
    // Small blocks for load balance; contiguous so block order equals
    // sequential seed order.
    const size_t block = std::max<size_t>(1, seeds.size() / (workers * 8));
    const size_t num_blocks = (seeds.size() + block - 1) / block;

    struct BlockRange {
      uint32_t worker = kUnclaimed;
      size_t begin_row = 0;
      size_t end_row = 0;
    };
    std::vector<BlockRange> blocks(num_blocks);
    std::vector<std::unique_ptr<CsrMatchRunner>> runners(workers);
    std::vector<Status> statuses(workers, Status::OK());
    std::atomic<size_t> next_block{0};
    std::atomic<bool> abort{false};

    auto work = [&](size_t w) {
      runners[w] = std::make_unique<CsrMatchRunner>(
          graph_, csr_, *rm, options_.max_rows, options_.deadline, &abort);
      while (!abort.load(std::memory_order_relaxed)) {
        size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= num_blocks) break;
        size_t begin = b * block;
        size_t end = std::min(seeds.size(), begin + block);
        size_t begin_row = runners[w]->rows().size();
        Status st = runners[w]->RunSeedRange(seeds, begin, end);
        blocks[b] =
            BlockRange{static_cast<uint32_t>(w), begin_row,
                       runners[w]->rows().size()};
        if (!st.ok()) {
          statuses[w] = st;
          abort.store(true, std::memory_order_relaxed);
          break;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();

    for (const auto& runner : runners) {
      if (runner != nullptr) {
        stats->expansions += runner->expansions();
        stats->deadline_checks += runner->deadline_checks();
      }
    }
    // A worker that stopped because a sibling raised the abort flag
    // carries the sentinel, not the real stop reason — prefer the first
    // originating error in worker order so row-limit stays row-limit and
    // deadline stays deadline regardless of which worker noticed first.
    for (const Status& st : statuses) {
      if (!st.ok() && !internal::IsCancelledBySibling(st)) return st;
    }
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }

    // Deterministic merge: block order + global first-occurrence dedup.
    RowSet merged(rm->return_slots.size(),
                  /*deduplicate=*/!rm->seeds_disjoint);
    for (size_t b = 0; b < num_blocks; ++b) {
      const BlockRange& br = blocks[b];
      if (br.worker == kUnclaimed) {
        return Status::Internal("unprocessed seed block without an error");
      }
      merged.InsertRange(runners[br.worker]->rows(), br.begin_row,
                         br.end_row);
      if (merged.size() > options_.max_rows) {
        return Status::ResourceExhausted("MATCH row limit exceeded");
      }
    }
    return MatchRows{std::move(rm->columns), std::move(merged)};
  }

  const PropertyGraph& graph_;
  const CsrGraph& csr_;
  ExecutorOptions options_;
};

// ---------------------------------------------------------------------------
// SELECT evaluation over column batches. Each layer is compiled once
// against its input's schema: every column reference becomes a column
// index, plus the property key when it reads a vertex property. The row
// loop then does no name lookup, builds no strings and copies no value
// it only reads. Layers pass columns to each other; only the outermost
// layer's output becomes a `Table`.
// ---------------------------------------------------------------------------

/// What a reference to an absent vertex property reads.
const PropertyValue kNullValue;

/// \brief A SELECT layer's input or output, stored by column. A vertex
/// column holds raw ids (`kInvalidId` is a NULL cell) in `ids`, a value
/// column holds values in `values`; the other vector of each column
/// stays empty. No row is a heap object.
struct ColumnBatch {
  explicit ColumnBatch(std::vector<Column> cols)
      : columns(std::move(cols)),
        ids(columns.size()),
        values(columns.size()) {}

  std::vector<Column> columns;
  std::vector<std::vector<VertexId>> ids;
  std::vector<std::vector<PropertyValue>> values;
  size_t num_rows = 0;
  /// No two rows are equal: the batch holds a MATCH's set-semantics
  /// output.
  bool distinct = false;
};

/// The batch of a CSR MATCH's rows: its flat rows transposed into one id
/// array per column.
ColumnBatch BatchFromRows(MatchRows match) {
  ColumnBatch batch(std::move(match.columns));
  const RowSet& rows = match.rows;
  batch.num_rows = rows.size();
  batch.distinct = true;
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    std::vector<VertexId>& column = batch.ids[c];
    column.resize(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) column[r] = rows.row(r)[c];
  }
  return batch;
}

/// The batch of the legacy backtracker's MATCH output, read at the same
/// boundary the CSR rows are. Every MATCH column is a vertex column.
ColumnBatch BatchFromMatchTable(const Table& table) {
  ColumnBatch batch(table.columns());
  batch.num_rows = table.num_rows();
  batch.distinct = true;
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    batch.ids[c].reserve(table.num_rows());
    for (const auto& row : table.rows()) {
      batch.ids[c].push_back(static_cast<VertexId>(row[c].as_int()));
    }
  }
  return batch;
}

/// The outermost layer's output as the `Table` the executor returns.
Table BatchToTable(ColumnBatch batch) {
  Table table(batch.columns);
  table.Reserve(batch.num_rows);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      if (!batch.columns[c].is_vertex) {
        table.EmplaceCell(std::move(batch.values[c][r]));
      } else if (batch.ids[c][r] == graph::kInvalidId) {
        table.EmplaceCell();
      } else {
        table.EmplaceCell(static_cast<int64_t>(batch.ids[c][r]));
      }
    }
    table.EndRow();
  }
  return table;
}

/// A `ColumnRef` resolved against an input schema: the cell at `column`,
/// or, when `property` is set, that property of the vertex in the cell.
struct CompiledRef {
  size_t column = 0;
  bool vertex = false;  ///< `column` is a vertex column.
  const std::string* property = nullptr;  ///< Points into the AST.
};

/// Resolves `ref` against `columns`. A literal `base.property` column (a
/// group key an inner layer propagated, e.g. `A.pipelineName`) wins over
/// reading the property through the vertex column `base`.
Result<CompiledRef> CompileRef(const std::vector<Column>& columns,
                               const ColumnRef& ref) {
  if (!ref.property.empty()) {
    const int direct = FindColumn(columns, ref.ToString());
    if (direct >= 0) {
      return CompiledRef{static_cast<size_t>(direct),
                         columns[direct].is_vertex, nullptr};
    }
  }
  const int col = FindColumn(columns, ref.base);
  if (col < 0) return Status::NotFound("unknown column '" + ref.base + "'");
  const bool vertex = columns[col].is_vertex;
  if (ref.property.empty()) {
    return CompiledRef{static_cast<size_t>(col), vertex, nullptr};
  }
  if (!vertex) {
    return Status::InvalidArgument("column '" + ref.base +
                                   "' is not a vertex; cannot read property '" +
                                   ref.property + "'");
  }
  return CompiledRef{static_cast<size_t>(col), true, &ref.property};
}

/// The value `ref` names in row `row` of `input`, read in place. A bare
/// vertex cell has no `PropertyValue` to point at, so it is written to
/// `*scratch` (an int, or NULL) and read from there. A property of a
/// NULL vertex cell (a plain item of an aggregate over no rows) is NULL.
const PropertyValue& ReadRef(const PropertyGraph& graph,
                             const ColumnBatch& input, const CompiledRef& ref,
                             size_t row, PropertyValue* scratch) {
  if (!ref.vertex) return input.values[ref.column][row];
  const VertexId v = input.ids[ref.column][row];
  if (ref.property == nullptr) {
    *scratch = v == graph::kInvalidId ? PropertyValue()
                                      : PropertyValue(static_cast<int64_t>(v));
    return *scratch;
  }
  if (v == graph::kInvalidId) return kNullValue;
  const PropertyValue* value = graph.VertexProperties(v).Find(*ref.property);
  return value != nullptr ? *value : kNullValue;
}

/// Streaming state of one aggregate over one group. NULLs are skipped
/// (SQL semantics); SUM stays an int while every input is an int and
/// the int sum does not overflow; AVG is the double sum over the count.
/// MIN/MAX keep the first extreme under `PropertyValue`'s total order in
/// a slot of the group table's side array, so the accumulator itself is
/// trivially copyable and a growing group table moves it as bytes.
struct Accumulator {
  int64_t count = 0;
  int64_t isum = 0;
  double sum = 0;
  bool all_int = true;

  /// `extreme` is the aggregate's MIN/MAX slot (unused otherwise).
  void Add(AggFunc func, const PropertyValue& v, PropertyValue* extreme) {
    if (v.is_null()) return;
    ++count;
    switch (func) {
      case AggFunc::kMin:
        if (count == 1 || v < *extreme) *extreme = v;
        return;
      case AggFunc::kMax:
        if (count == 1 || *extreme < v) *extreme = v;
        return;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (!v.is_int() || __builtin_add_overflow(isum, v.as_int(), &isum)) {
          all_int = false;
        }
        sum += v.ToDouble();
        return;
      case AggFunc::kCount:
      case AggFunc::kNone:
        return;
    }
  }

  /// COUNT(*): counts the row, NULL or not.
  void AddRow() { ++count; }

  PropertyValue Finish(AggFunc func, const PropertyValue* extreme) const {
    switch (func) {
      case AggFunc::kCount:
        return PropertyValue(count);
      case AggFunc::kSum:
        if (count == 0) return PropertyValue();
        return all_int ? PropertyValue(isum) : PropertyValue(sum);
      case AggFunc::kAvg:
        if (count == 0) return PropertyValue();
        return PropertyValue(sum / static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return count > 0 ? *extreme : PropertyValue();
      case AggFunc::kNone:
        break;
    }
    return PropertyValue();
  }
};
static_assert(std::is_trivially_copyable_v<Accumulator>);

/// Group-key equality: `PropertyValue::operator==`, under which int 7
/// and double 7.0 are one value, except that NaN groups with NaN (which
/// `HashValue` hashes alike).
bool GroupValueEquals(const PropertyValue& a, const PropertyValue& b) {
  return a == b || (a.is_double() && b.is_double() &&
                    std::isnan(a.as_double()) && std::isnan(b.as_double()));
}

/// Open-addressed hash table from group keys to dense group ids in
/// first-seen order. A key is `id_width` raw vertex ids (the GROUP BY
/// refs that name a vertex column, hashed and compared as integers)
/// followed by `value_width` values. Per group it stores the key, the
/// group's first input row, `num_aggs` accumulators and `num_extremes`
/// MIN/MAX values, each in one flat array indexed by group id.
class GroupTable {
 public:
  /// `first_row` of a group made without an input row.
  static constexpr uint32_t kNoRow = ~0u;

  GroupTable(size_t id_width, size_t value_width, size_t num_aggs,
             size_t num_extremes)
      : id_width_(id_width),
        value_width_(value_width),
        num_aggs_(num_aggs),
        num_extremes_(num_extremes) {}

  size_t size() const { return first_rows_.size(); }
  uint32_t first_row(size_t group) const { return first_rows_[group]; }
  Accumulator* accumulators(size_t group) {
    return accumulators_.data() + group * num_aggs_;
  }
  PropertyValue* extremes(size_t group) {
    return extremes_.data() + group * num_extremes_;
  }

  /// Adds a group whose first row is `row` without a key: for a caller
  /// that knows every row's key is new. Such a table takes no
  /// `FindOrAdd`.
  size_t Append(uint32_t row) {
    first_rows_.push_back(row);
    accumulators_.resize(accumulators_.size() + num_aggs_);
    extremes_.resize(extremes_.size() + num_extremes_);
    return size() - 1;
  }

  /// Id of the group whose key is (`ids`, `values`); a new key adds a
  /// group whose first row is `row`.
  size_t FindOrAdd(const VertexId* ids, const PropertyValue* const* values,
                   uint32_t row) {
    uint64_t hash = 0;
    for (size_t k = 0; k < id_width_; ++k) {
      hash = Mix64(hash ^ (ids[k] + 0x9e3779b97f4a7c15ULL));
    }
    for (size_t k = 0; k < value_width_; ++k) {
      hash = Mix64(hash ^ HashValue(*values[k]));
    }
    if (2 * (size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = static_cast<uint32_t>(size() + 1);
        hashes_.push_back(hash);
        id_keys_.insert(id_keys_.end(), ids, ids + id_width_);
        for (size_t k = 0; k < value_width_; ++k) {
          value_keys_.push_back(*values[k]);
        }
        first_rows_.push_back(row);
        accumulators_.resize(accumulators_.size() + num_aggs_);
        extremes_.resize(extremes_.size() + num_extremes_);
        return size() - 1;
      }
      const size_t group = slot - 1;
      if (hashes_[group] == hash && KeyEquals(group, ids, values)) {
        return group;
      }
    }
  }

 private:
  bool KeyEquals(size_t group, const VertexId* ids,
                 const PropertyValue* const* values) const {
    if (id_width_ > 0 &&
        std::memcmp(id_keys_.data() + group * id_width_, ids,
                    id_width_ * sizeof(VertexId)) != 0) {
      return false;
    }
    const PropertyValue* stored = value_keys_.data() + group * value_width_;
    for (size_t k = 0; k < value_width_; ++k) {
      if (!GroupValueEquals(stored[k], *values[k])) return false;
    }
    return true;
  }

  /// Doubles the slot array (16 at first) and re-places every group by
  /// its stored hash; the load factor stays at most 1/2.
  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t group = 0; group < size(); ++group) {
      size_t i = hashes_[group] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(group + 1);
    }
  }

  size_t id_width_;
  size_t value_width_;
  size_t num_aggs_;
  size_t num_extremes_;
  std::vector<uint32_t> slots_;  ///< Group id + 1; 0 marks an empty slot.
  std::vector<uint64_t> hashes_;
  std::vector<VertexId> id_keys_;         ///< `id_width_` per group.
  std::vector<PropertyValue> value_keys_;  ///< `value_width_` per group.
  std::vector<uint32_t> first_rows_;
  std::vector<Accumulator> accumulators_;  ///< `num_aggs_` per group.
  std::vector<PropertyValue> extremes_;    ///< `num_extremes_` per group.
};

/// One SELECT item compiled against the layer's input.
struct CompiledItem {
  AggFunc agg = AggFunc::kNone;
  bool star = false;
  CompiledRef ref;   ///< Unset for COUNT(*).
  size_t acc = 0;    ///< Accumulator slot of an aggregate.
  size_t ext = 0;    ///< Extreme slot of a MIN/MAX.
  bool vertex_out = false;  ///< Copies a vertex column's ids as they are.
};

/// Runs one SELECT layer over its evaluated input. Every reference is
/// resolved before any row is read, so an unknown column fails whatever
/// the data.
Result<ColumnBatch> EvaluateSelect(const PropertyGraph& graph,
                                   const SelectQuery& select,
                                   const ColumnBatch& input) {
  std::vector<std::pair<CompiledRef, const Condition*>> where;
  for (const Condition& cond : select.where) {
    KASKADE_ASSIGN_OR_RETURN(CompiledRef lhs,
                             CompileRef(input.columns, cond.lhs));
    where.emplace_back(lhs, &cond);
  }
  // GROUP BY refs naming a vertex column key by id; the rest by value.
  std::vector<CompiledRef> id_keys;
  std::vector<CompiledRef> value_keys;
  for (const ColumnRef& ref : select.group_by) {
    KASKADE_ASSIGN_OR_RETURN(CompiledRef compiled,
                             CompileRef(input.columns, ref));
    (compiled.vertex && compiled.property == nullptr ? id_keys : value_keys)
        .push_back(compiled);
  }
  std::vector<CompiledItem> items;
  std::vector<const CompiledItem*> aggs;
  std::vector<Column> out_columns;
  size_t num_extremes = 0;
  items.reserve(select.items.size());
  for (const SelectItem& item : select.items) {
    CompiledItem& compiled = items.emplace_back();
    compiled.agg = item.agg;
    compiled.star = item.star;
    compiled.acc = aggs.size();
    if (!item.star) {
      KASKADE_ASSIGN_OR_RETURN(compiled.ref,
                               CompileRef(input.columns, item.ref));
    }
    if (item.agg == AggFunc::kMin || item.agg == AggFunc::kMax) {
      compiled.ext = num_extremes++;
    }
    if (item.agg != AggFunc::kNone) aggs.push_back(&compiled);
    // A bare vertex-column reference stays a vertex column.
    compiled.vertex_out = item.agg == AggFunc::kNone &&
                          item.ref.property.empty() && compiled.ref.vertex;
    out_columns.push_back(Column{item.OutputName(), compiled.vertex_out});
  }
  ColumnBatch out(std::move(out_columns));
  PropertyValue scratch;

  auto passes = [&](size_t row) {
    for (const auto& [lhs, cond] : where) {
      if (!EvaluateCompare(cond->op, ReadRef(graph, input, lhs, row, &scratch),
                           cond->rhs)) {
        return false;
      }
    }
    return true;
  };

  if (aggs.empty() && select.group_by.empty()) {
    // Plain projection.
    for (size_t row = 0; row < input.num_rows; ++row) {
      if (!passes(row)) continue;
      for (size_t i = 0; i < items.size(); ++i) {
        const CompiledRef& ref = items[i].ref;
        if (items[i].vertex_out) {
          out.ids[i].push_back(input.ids[ref.column][row]);
        } else {
          out.values[i].push_back(ReadRef(graph, input, ref, row, &scratch));
        }
      }
      ++out.num_rows;
    }
    return out;
  }

  // Grouped aggregation; aggregates without GROUP BY form one group.
  GroupTable groups(id_keys.size(), value_keys.size(), aggs.size(),
                    num_extremes);
  std::vector<VertexId> key_ids(id_keys.size());
  std::vector<const PropertyValue*> key_values(value_keys.size());
  // When every value key reads a vertex property, the whole key is a
  // function of the vertex cells the keys read: a row whose cells equal
  // the previous row's joins the previous row's group without hashing.
  // MATCH output lists a seed's rows together, so this skips most
  // lookups of a key like `A.pipelineName`.
  std::vector<size_t> key_cells;
  bool memo = true;
  for (const CompiledRef& ref : id_keys) key_cells.push_back(ref.column);
  for (const CompiledRef& ref : value_keys) {
    memo = memo && ref.vertex;
    key_cells.push_back(ref.column);
  }
  // Over distinct rows, a key holding every input column as an id is
  // new on every row: each passing row is its own group, in row order,
  // and no key is hashed. Q1's inner `GROUP BY A, B` over its MATCH is
  // such a grouping.
  std::vector<bool> keyed(input.columns.size(), false);
  for (const CompiledRef& ref : id_keys) keyed[ref.column] = true;
  const bool row_per_group =
      input.distinct && !id_keys.empty() &&
      std::find(keyed.begin(), keyed.end(), false) == keyed.end();
  std::vector<VertexId> prev_cells(key_cells.size());
  size_t prev_group = 0;
  bool have_prev = false;
  auto group_of = [&](size_t row) -> size_t {
    if (row_per_group) return groups.Append(static_cast<uint32_t>(row));
    if (memo) {
      bool same = have_prev;
      for (size_t k = 0; k < key_cells.size(); ++k) {
        const VertexId v = input.ids[key_cells[k]][row];
        same = same && v == prev_cells[k];
        prev_cells[k] = v;
      }
      if (same) return prev_group;
    }
    for (size_t k = 0; k < id_keys.size(); ++k) {
      key_ids[k] = input.ids[id_keys[k].column][row];
    }
    for (size_t k = 0; k < value_keys.size(); ++k) {
      key_values[k] = &ReadRef(graph, input, value_keys[k], row, &scratch);
    }
    prev_group = groups.FindOrAdd(key_ids.data(), key_values.data(),
                                  static_cast<uint32_t>(row));
    have_prev = true;
    return prev_group;
  };
  for (size_t row = 0; row < input.num_rows; ++row) {
    if (!passes(row)) continue;
    const size_t group = group_of(row);
    Accumulator* accs = groups.accumulators(group);
    PropertyValue* extremes = groups.extremes(group);
    for (const CompiledItem* agg : aggs) {
      if (agg->star) {
        accs[agg->acc].AddRow();
      } else {
        accs[agg->acc].Add(agg->agg,
                           ReadRef(graph, input, agg->ref, row, &scratch),
                           extremes + agg->ext);
      }
    }
  }
  // Without GROUP BY the one group exists even over no rows: COUNT reads
  // 0, the other aggregates and any plain item NULL.
  if (select.group_by.empty() && groups.size() == 0) {
    groups.FindOrAdd(nullptr, nullptr, GroupTable::kNoRow);
  }

  out.num_rows = groups.size();
  for (size_t i = 0; i < items.size(); ++i) {
    const CompiledItem& item = items[i];
    if (item.vertex_out) {
      out.ids[i].reserve(groups.size());
    } else {
      out.values[i].reserve(groups.size());
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      const uint32_t first = groups.first_row(g);
      if (item.agg != AggFunc::kNone) {
        out.values[i].push_back(groups.accumulators(g)[item.acc].Finish(
            item.agg, groups.extremes(g) + item.ext));
      } else if (item.vertex_out) {
        out.ids[i].push_back(first == GroupTable::kNoRow
                                 ? graph::kInvalidId
                                 : input.ids[item.ref.column][first]);
      } else if (first == GroupTable::kNoRow) {
        out.values[i].emplace_back();
      } else {
        out.values[i].push_back(
            ReadRef(graph, input, item.ref, first, &scratch));
      }
    }
  }
  return out;
}

/// What one `Execute` call evaluates against.
struct ExecContext {
  const PropertyGraph& graph;
  const CsrGraph* csr;  ///< Null: the legacy backtracker.
  const ExecutorOptions& options;
  ExecutionTiming* stats;  ///< Accumulates expansions + deadline checks.
};

/// Runs `match` on the CSR backend. Cheap staleness tripwires first;
/// generation keying at the engine layer is the real guarantee. The
/// id-space check additionally catches balanced insert+remove churn
/// that leaves both counts unchanged — which matters now that snapshots
/// are patched forward rather than always rebuilt.
Result<MatchRows> RunCsrMatch(const ExecContext& ctx,
                              const MatchQuery& match) {
  if (internal::CsrSnapshotIsStale(ctx.graph, *ctx.csr)) {
    return internal::StaleSnapshotError();
  }
  CsrMatchEvaluator evaluator(ctx.graph, *ctx.csr, ctx.options);
  return evaluator.Run(match, ctx.stats);
}

Result<Table> RunLegacyMatch(const ExecContext& ctx, const MatchQuery& match) {
  MatchEvaluator evaluator(ctx.graph, ctx.options);
  Result<Table> result = evaluator.Run(match);
  ctx.stats->deadline_checks += evaluator.deadline_checks();
  return result;
}

/// Evaluates `select` and its inputs down to the MATCH, column batch to
/// column batch.
Result<ColumnBatch> EvaluateSelectStack(const ExecContext& ctx,
                                        const SelectQuery& select) {
  Result<ColumnBatch> input = [&]() -> Result<ColumnBatch> {
    if (select.from->is_select()) {
      return EvaluateSelectStack(ctx, select.from->select());
    }
    if (ctx.csr != nullptr) {
      KASKADE_ASSIGN_OR_RETURN(MatchRows rows,
                               RunCsrMatch(ctx, select.from->match()));
      return BatchFromRows(std::move(rows));
    }
    KASKADE_ASSIGN_OR_RETURN(Table table,
                             RunLegacyMatch(ctx, select.from->match()));
    return BatchFromMatchTable(table);
  }();
  if (!input.ok()) return input.status();
  return EvaluateSelect(ctx.graph, select, *input);
}

Result<Table> ExecuteQuery(const ExecContext& ctx, const Query& query) {
  if (query.is_select()) {
    KASKADE_ASSIGN_OR_RETURN(ColumnBatch out,
                             EvaluateSelectStack(ctx, query.select()));
    return BatchToTable(std::move(out));
  }
  if (ctx.csr == nullptr) return RunLegacyMatch(ctx, query.match());
  KASKADE_ASSIGN_OR_RETURN(MatchRows rows, RunCsrMatch(ctx, query.match()));
  return internal::RowSetToTable(std::move(rows.columns), rows.rows);
}

}  // namespace

Result<Table> QueryExecutor::Execute(const Query& query,
                                     ExecutionTiming* timing) {
  const auto started = std::chrono::steady_clock::now();
  ExecutionTiming stats;
  Result<Table> result = [&]() -> Result<Table> {
    if (options_.deadline != std::chrono::steady_clock::time_point{} &&
        started >= options_.deadline) {
      // Already past the deadline at entry (e.g. the op queued behind a
      // stall): fail deterministically without touching the graph.
      stats.deadline_checks = 1;
      return internal::DeadlineExceededError();
    }
    return ExecuteQuery(ExecContext{*graph_, csr_, options_, &stats}, query);
  }();
  if (timing != nullptr) {
    timing->elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count();
    timing->expansions = stats.expansions;
    timing->deadline_checks = stats.deadline_checks;
  }
  return result;
}

Result<Table> QueryExecutor::ExecuteText(const std::string& text,
                                         ExecutionTiming* timing) {
  KASKADE_ASSIGN_OR_RETURN(Query query, ParseQueryText(text));
  return Execute(query, timing);
}

}  // namespace kaskade::query
