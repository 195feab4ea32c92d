#include "query/fused_runner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "query/match_common.h"

namespace kaskade::query {

using graph::CsrGraph;
using graph::NeighborSpan;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

using internal::CancelGuard;
using internal::CsrTraversal;
using internal::ResolvedMatch;
using internal::ResolvedPattern;
using internal::ResolveMatch;
using internal::RowSet;
using internal::Step;
using internal::StepScratch;

namespace {

/// \brief The members of one `=` conjunct, looked up by value: each
/// distinct constant maps to the mask of members that carry it, so
/// binding a vertex costs one hash probe however many members the group
/// has. The hash is `HashValue`, which agrees with
/// `PropertyValue::operator==`: ints and doubles meet by value and -0.0
/// meets 0.0. A probe confirms each candidate with `operator==` and
/// takes the union of every constant equal to the value, since that
/// equality is not transitive across types (the double 2^53 equals both
/// the int 2^53 and the int 2^53 + 1). A NaN constant equals nothing
/// and is left out; a null constant is an ordinary entry, met by a
/// vertex that lacks the property, as `EvaluateCompare` meets it.
class EqualityIndex {
 public:
  EqualityIndex() = default;
  EqualityIndex(const std::vector<PropertyValue>& constants, size_t words)
      : words_(words) {
    slots_.assign(std::bit_ceil(std::max<size_t>(8, 8 * constants.size())),
                  0);
    const size_t wrap = slots_.size() - 1;
    for (size_t m = 0; m < constants.size(); ++m) {
      const PropertyValue& c = constants[m];
      if (c.is_double() && std::isnan(c.as_double())) continue;
      const uint64_t hash = internal::HashValue(c);
      size_t i = hash & wrap;
      // Same-type equal constants share an entry: within one type
      // `operator==` is an equivalence once NaN is out.
      while (slots_[i] != 0) {
        const Entry& e = entries_[slots_[i] - 1];
        if (e.hash == hash && e.constant == c &&
            e.constant.is_int() == c.is_int()) {
          break;
        }
        i = (i + 1) & wrap;
      }
      if (slots_[i] == 0) {
        entries_.push_back(Entry{c, hash});
        member_masks_.resize(entries_.size() * words_, 0);
        slots_[i] = static_cast<uint32_t>(entries_.size());
      }
      uint64_t* members = &member_masks_[(slots_[i] - 1) * words_];
      members[m / 64] |= uint64_t(1) << (m % 64);
    }
  }

  /// Clears from `mask` every member whose constant is not equal to
  /// `value`. `hits` is `words` entries of scratch.
  void Narrow(const PropertyValue& value, uint64_t* mask,
              uint64_t* hits) const {
    const uint64_t hash = internal::HashValue(value);
    const size_t wrap = slots_.size() - 1;
    bool found = false;
    for (size_t i = hash & wrap; slots_[i] != 0; i = (i + 1) & wrap) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.hash != hash || !(value == e.constant)) continue;
      const uint64_t* members = &member_masks_[(slots_[i] - 1) * words_];
      for (size_t w = 0; w < words_; ++w) {
        hits[w] = found ? hits[w] | members[w] : members[w];
      }
      found = true;
    }
    for (size_t w = 0; w < words_; ++w) {
      mask[w] = found ? mask[w] & hits[w] : 0;
    }
  }

 private:
  struct Entry {
    PropertyValue constant;
    uint64_t hash;
  };
  size_t words_ = 0;
  std::vector<Entry> entries_;
  /// `words_` mask words per entry: the members carrying its constant.
  std::vector<uint64_t> member_masks_;
  /// Open-addressed, at most one eighth full, so a probe for a value no
  /// member wants mostly ends at its first slot: entry index + 1, 0 when
  /// empty.
  std::vector<uint32_t> slots_;
};

/// One WHERE conjunct of the group with its constant lifted into a
/// per-member binding vector: the structure (lhs property, operator) is
/// shared by every member — that is what the plan shape guarantees —
/// and `rhs[m]` is member m's constant. An `=` conjunct also indexes
/// its constants (`equal`), so it is tested with one probe instead of
/// one comparison per member.
struct FusedCondition {
  std::string property;
  CompareOp op = CompareOp::kEq;
  std::vector<PropertyValue> rhs;
  EqualityIndex equal;
};

/// \brief The shared-traversal backtracker. Mirrors `CsrMatchRunner`
/// (executor.cc) step for step — same plan, same candidate enumeration
/// order, same emission points — but carries a per-member alive bitmask
/// instead of evaluating one query's predicates, and splits rows into
/// per-member row sets at emit time. Byte-identity with the solo
/// sequential run follows from that mirroring; keep the two in lockstep
/// when changing either.
class FusedMatchRunner {
 public:
  FusedMatchRunner(const PropertyGraph& graph, const CsrGraph& csr,
                   const ResolvedMatch& rm,
                   std::vector<std::vector<FusedCondition>> slot_conditions,
                   size_t num_members, size_t max_rows,
                   CancelGuard::Clock::time_point deadline)
      : graph_(graph),
        csr_(csr),
        rm_(rm),
        slot_conditions_(std::move(slot_conditions)),
        num_members_(num_members),
        words_((num_members + 63) / 64),
        max_rows_(max_rows),
        guard_(deadline, /*cancel=*/nullptr),
        traversal_(csr) {
    traversal_.set_guard(&guard_);
    binding_.assign(rm.pattern.nodes.size(), graph::kInvalidId);
    scratch_.resize(rm.plan.size());
    row_buf_.assign(std::max<size_t>(1, rm.return_slots.size()), 0);
    masks_.assign(rm.plan.size(), std::vector<uint64_t>(words_, 0));
    root_mask_.assign(words_, 0);
    for (size_t m = 0; m < num_members; ++m) {
      root_mask_[m / 64] |= uint64_t(1) << (m % 64);
    }
    failed_.assign(words_, 0);
    hits_.assign(words_, 0);
    member_errors_.assign(num_members, Status::OK());
    member_rows_.reserve(num_members);
    for (size_t m = 0; m < num_members; ++m) {
      member_rows_.emplace_back(rm.return_slots.size(),
                                /*deduplicate=*/!rm.rows_distinct);
    }
  }

  void Run() { Backtrack(0, root_mask_.data()); }

  /// One top-level seed candidate (the first plan step is always an
  /// unbound seed): mirrors one iteration of `Run()`'s seed loop, for
  /// the scatter-gather driver that partitions the candidates by shard.
  void RunSeed(VertexId v) {
    const size_t slot = static_cast<size_t>(rm_.plan[0].node_slot);
    uint64_t* narrowed = masks_[0].data();
    ++expansions_;
    if (guard_.Charge(1)) return;
    if (!FusedAccept(slot, v, root_mask_.data(), narrowed)) return;
    binding_[slot] = v;
    Backtrack(1, narrowed);
    binding_[slot] = graph::kInvalidId;
  }

  bool all_members_failed() const { return AllFailed(); }

  const RowSet& rows_of(size_t member) const { return member_rows_[member]; }
  const Status& error_of(size_t member) const {
    return member_errors_[member];
  }
  uint64_t expansions() const { return expansions_; }
  uint64_t deadline_checks() const { return guard_.checks(); }
  /// The group's deadline fired and the shared walk stopped early: every
  /// member without its own error holds a *partial* row set and must be
  /// failed by the caller, never materialized.
  bool deadline_expired() const { return guard_.expired(); }

 private:
  bool AnyAlive(const uint64_t* mask) const {
    uint64_t any = 0;
    for (size_t w = 0; w < words_; ++w) any |= mask[w] & ~failed_[w];
    return any != 0;
  }

  bool AllFailed() const {
    size_t failed = 0;
    for (size_t w = 0; w < words_; ++w) failed += std::popcount(failed_[w]);
    return failed == num_members_;
  }

  void FailMember(size_t m, Status status) {
    member_errors_[m] = std::move(status);
    failed_[m / 64] |= uint64_t(1) << (m % 64);
  }

  /// Binding `v` to `slot`: the shared type constraint first (clears
  /// everyone at once), then each conjunct reads the property value once,
  /// in place. An `=` conjunct probes its constant index once and keeps
  /// the members whose constant matched; any other operator compares the
  /// value against every still-alive member's constant. Writes the
  /// narrowed mask into `out`; returns false (and leaves `out`
  /// unspecified) when no member survives.
  bool FusedAccept(size_t slot, VertexId v, const uint64_t* in,
                   uint64_t* out) {
    const ResolvedPattern::Node& n = rm_.pattern.nodes[slot];
    if (n.has_type_constraint && graph_.VertexType(v) != n.type) return false;
    uint64_t any = 0;
    for (size_t w = 0; w < words_; ++w) {
      out[w] = in[w] & ~failed_[w];
      any |= out[w];
    }
    if (any == 0) return false;
    for (const FusedCondition& cond : slot_conditions_[slot]) {
      const PropertyValue& value =
          internal::VertexPropertyRef(graph_, v, cond.property);
      if (cond.op == CompareOp::kEq) {
        cond.equal.Narrow(value, out, hits_.data());
      } else {
        for (size_t w = 0; w < words_; ++w) {
          uint64_t bits = out[w];
          while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            if (!EvaluateCompare(cond.op, value,
                                 cond.rhs[w * 64 + size_t(b)])) {
              out[w] &= ~(uint64_t(1) << b);
            }
          }
        }
      }
      any = 0;
      for (size_t w = 0; w < words_; ++w) any |= out[w];
      if (any == 0) return false;
    }
    return true;
  }

  /// Every alive member receives the current binding's row. The row
  /// content is shared (bindings are group-wide); distinctness and the
  /// row limit are per member — a member past `max_rows_` fails with
  /// the same error its solo run would raise at the same insertion, and
  /// its bit leaves the traversal. A member's row set hashes the row
  /// only when the plan can repeat one, as the solo runner's does.
  void EmitRows(const uint64_t* mask) {
    const size_t width = rm_.return_slots.size();
    for (size_t k = 0; k < width; ++k) {
      row_buf_[k] = binding_[rm_.return_slots[k]];
    }
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = mask[w] & ~failed_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const size_t m = w * 64 + size_t(b);
        if (member_rows_[m].Insert(row_buf_.data()) &&
            member_rows_[m].size() > max_rows_) {
          FailMember(m, Status::ResourceExhausted("MATCH row limit exceeded"));
        }
      }
    }
  }

  void Backtrack(size_t step_index, const uint64_t* mask) {
    if (guard_.stopped()) return;  // prompt unwind of the whole walk
    if (!AnyAlive(mask)) return;
    if (step_index == rm_.plan.size()) {
      EmitRows(mask);
      return;
    }
    const Step& step = rm_.plan[step_index];
    const ResolvedPattern& pattern = rm_.pattern;
    uint64_t* narrowed = masks_[step_index].data();

    if (step.kind == Step::kSeed) {
      size_t slot = static_cast<size_t>(step.node_slot);
      if (binding_[slot] != graph::kInvalidId) {
        Backtrack(step_index + 1, mask);
        return;
      }
      const ResolvedPattern::Node& n = pattern.nodes[slot];
      auto try_seed = [&](VertexId v) {
        ++expansions_;
        if (guard_.Charge(1)) return;
        if (!FusedAccept(slot, v, mask, narrowed)) return;
        binding_[slot] = v;
        Backtrack(step_index + 1, narrowed);
        binding_[slot] = graph::kInvalidId;
      };
      if (n.has_type_constraint) {
        for (VertexId v : graph_.VerticesOfType(n.type)) {
          if (AllFailed() || guard_.stopped()) return;
          try_seed(v);
        }
      } else {
        for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
          if (!graph_.IsVertexLive(v)) continue;
          if (AllFailed() || guard_.stopped()) return;
          try_seed(v);
        }
      }
      return;
    }

    const ResolvedPattern::Edge& edge = pattern.edges[step.edge_index];
    VertexId from = binding_[edge.from];
    VertexId to = binding_[edge.to];
    bool from_bound = from != graph::kInvalidId;
    bool to_bound = to != graph::kInvalidId;
    StepScratch* scratch = &scratch_[step_index];

    if (from_bound && to_bound) {
      // Filter edge (closes a cycle): purely structural, so shared.
      ++expansions_;
      if (guard_.Charge(1)) return;
      bool connected =
          edge.variable_length
              ? traversal_.VarLengthConnected(from, to, edge.type,
                                              edge.min_hops, edge.max_hops,
                                              scratch)
              : traversal_.HasFixedEdge(from, to, edge.type);
      if (guard_.stopped()) return;
      if (connected) Backtrack(step_index + 1, mask);
      return;
    }

    const bool forward = from_bound;  // else expand backward from `to`
    size_t free_slot = forward ? edge.to : edge.from;
    VertexId anchor = forward ? from : to;
    // A trivial endpoint narrows no member (no conditions, type
    // implied): the parent mask flows through untouched.
    const bool trivial = forward ? edge.trivial_forward : edge.trivial_backward;

    if (!edge.variable_length && step_index + 1 == rm_.plan.size()) {
      // Fused final expansion, as in the solo runner: iterate the typed
      // slice directly and emit.
      NeighborSpan span = forward ? csr_.TypedOutEdges(anchor, edge.type)
                                  : csr_.TypedInEdges(anchor, edge.type);
      expansions_ += span.size;
      if (guard_.Charge(span.size)) return;
      for (VertexId v : span) {
        if (trivial) {
          binding_[free_slot] = v;
          EmitRows(mask);
        } else if (FusedAccept(free_slot, v, mask, narrowed)) {
          binding_[free_slot] = v;
          EmitRows(narrowed);
        }
      }
      binding_[free_slot] = graph::kInvalidId;
      return;
    }

    if (edge.variable_length) {
      traversal_.VarLengthTargets(anchor, edge.type, edge.min_hops,
                                  edge.max_hops, !forward, scratch);
    } else {
      traversal_.GatherDistinctNeighbors(anchor, edge.type, forward,
                                         &scratch->candidates);
    }
    expansions_ += scratch->candidates.size();
    if (guard_.Charge(scratch->candidates.size()) || guard_.stopped()) return;
    for (VertexId v : scratch->candidates) {
      if (trivial) {
        binding_[free_slot] = v;
        Backtrack(step_index + 1, mask);
        binding_[free_slot] = graph::kInvalidId;
      } else if (FusedAccept(free_slot, v, mask, narrowed)) {
        binding_[free_slot] = v;
        Backtrack(step_index + 1, narrowed);
        binding_[free_slot] = graph::kInvalidId;
      }
    }
  }

  const PropertyGraph& graph_;
  const CsrGraph& csr_;
  const ResolvedMatch& rm_;
  const std::vector<std::vector<FusedCondition>> slot_conditions_;
  const size_t num_members_;
  const size_t words_;
  const size_t max_rows_;
  CancelGuard guard_;
  CsrTraversal traversal_;
  std::vector<VertexId> binding_;
  std::vector<StepScratch> scratch_;
  std::vector<VertexId> row_buf_;
  /// Per-plan-step narrowed-mask buffer: the mask a binding at that step
  /// passes to the subtree below it. Reused per candidate; deeper steps
  /// use deeper buffers, so a parent's mask is never clobbered while a
  /// child still reads it.
  std::vector<std::vector<uint64_t>> masks_;
  std::vector<uint64_t> root_mask_;
  std::vector<uint64_t> failed_;
  /// Scratch for `EqualityIndex::Narrow`.
  std::vector<uint64_t> hits_;
  std::vector<Status> member_errors_;
  std::vector<RowSet> member_rows_;
  uint64_t expansions_ = 0;
};

/// Lifts each member's WHERE constants into the group's shared conjunct
/// structure (taken from member 0's resolved pattern). Conjuncts map to
/// (slot, position) exactly as `ResolvePattern` assigned them — by
/// walking `where` in order — so member m's k-th conjunct on a slot
/// lines up with member 0's. Structure mismatches mean the caller
/// grouped queries that do not share a shape. Each `=` conjunct then
/// indexes its constants, once per group.
Status LiftConstants(const ResolvedMatch& rm,
                     const std::vector<const MatchQuery*>& members,
                     std::vector<std::vector<FusedCondition>>* slot_conditions) {
  const size_t num_slots = rm.pattern.nodes.size();
  slot_conditions->assign(num_slots, {});
  for (size_t s = 0; s < num_slots; ++s) {
    for (const Condition& cond : rm.pattern.node_conditions[s]) {
      FusedCondition fused;
      fused.property = cond.lhs.property;
      fused.op = cond.op;
      fused.rhs.assign(members.size(), PropertyValue());
      (*slot_conditions)[s].push_back(std::move(fused));
    }
  }
  std::vector<size_t> cursor(num_slots);
  for (size_t m = 0; m < members.size(); ++m) {
    std::fill(cursor.begin(), cursor.end(), 0);
    for (const Condition& cond : members[m]->where) {
      int slot = rm.pattern.SlotOf(cond.lhs.base);
      if (slot < 0 || cursor[slot] >= (*slot_conditions)[slot].size()) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
      FusedCondition& fused = (*slot_conditions)[slot][cursor[slot]++];
      if (fused.property != cond.lhs.property || fused.op != cond.op) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
      fused.rhs[m] = cond.rhs;
    }
    for (size_t s = 0; s < num_slots; ++s) {
      if (cursor[s] != (*slot_conditions)[s].size()) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
    }
  }
  const size_t words = (members.size() + 63) / 64;
  for (std::vector<FusedCondition>& conditions : *slot_conditions) {
    for (FusedCondition& fused : conditions) {
      if (fused.op == CompareOp::kEq) {
        fused.equal = EqualityIndex(fused.rhs, words);
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<Result<Table>> ExecuteFusedMatch(
    const PropertyGraph& graph, const CsrGraph& csr,
    const std::vector<const MatchQuery*>& members,
    const ExecutorOptions& options, FusedGroupStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  std::vector<Result<Table>> results;
  results.reserve(members.size());
  auto finish_timing = [&] {
    if (stats != nullptr) {
      stats->elapsed_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    }
  };
  auto fail_all = [&](const Status& status) {
    results.clear();
    for (size_t m = 0; m < members.size(); ++m) results.push_back(status);
    finish_timing();
    return results;
  };

  if (members.empty()) {
    finish_timing();
    return results;
  }
  if (options.deadline != CancelGuard::Clock::time_point{} &&
      started >= options.deadline) {
    // Already past the deadline at entry: every member's solo run would
    // fail the same way, so fail the group without touching the graph.
    if (stats != nullptr) stats->deadline_checks = 1;
    return fail_all(internal::DeadlineExceededError());
  }
  // Group-level failures are shape-determined: every member's solo run
  // would raise the identical error, so filling each slot with it keeps
  // the fused path indistinguishable from the sequential one.
  if (internal::CsrSnapshotIsStale(graph, csr)) {
    return fail_all(internal::StaleSnapshotError());
  }
  Result<ResolvedMatch> rm = ResolveMatch(graph, *members[0]);
  if (!rm.ok()) return fail_all(rm.status());

  std::vector<std::vector<FusedCondition>> slot_conditions;
  Status lifted = LiftConstants(*rm, members, &slot_conditions);
  if (!lifted.ok()) return fail_all(lifted);

  if (options.shards > 1) {
    // Scatter-gather over engine shards, mirroring the solo evaluator's
    // sharded path: the top-level seed candidates are materialized in
    // sequential enumeration order and partitioned by `ShardOfVertex`;
    // each shard runs its own shared walk over its seeds (one fused
    // traversal per shard), recording the row span every seed produced
    // per member; the gather replays each member's spans in original
    // seed order with global first-occurrence dedup (a concatenation
    // when `seeds_disjoint`), so every member's table is byte-identical
    // to the unsharded fused run — which is itself byte-identical to the
    // member's solo run.
    const size_t num_shards = options.shards;
    const ResolvedPattern::Node& n0 =
        rm->pattern.nodes[static_cast<size_t>(rm->plan[0].node_slot)];
    std::vector<VertexId> seeds;
    if (n0.has_type_constraint) {
      seeds = graph.VerticesOfType(n0.type);
    } else {
      seeds.reserve(graph.NumLiveVertices());
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        if (graph.IsVertexLive(v)) seeds.push_back(v);
      }
    }
    std::vector<std::vector<size_t>> shard_seeds(num_shards);
    for (size_t i = 0; i < seeds.size(); ++i) {
      shard_seeds[graph::ShardOfVertex(seeds[i], num_shards)].push_back(i);
    }

    // Sparse per-(member, seed) spans: most seeds emit nothing for most
    // members, so only size changes are recorded.
    struct MemberSpan {
      uint32_t seed;
      uint32_t shard;
      size_t begin;
      size_t end;
    };
    std::vector<std::vector<MemberSpan>> member_spans(members.size());
    std::vector<std::unique_ptr<FusedMatchRunner>> runners(num_shards);
    std::vector<size_t> prev_size(members.size());
    bool expired = false;
    for (size_t s = 0; s < num_shards && !expired; ++s) {
      runners[s] = std::make_unique<FusedMatchRunner>(
          graph, csr, *rm, slot_conditions, members.size(), options.max_rows,
          options.deadline);
      std::fill(prev_size.begin(), prev_size.end(), 0);
      for (size_t i : shard_seeds[s]) {
        if (runners[s]->all_members_failed()) break;
        runners[s]->RunSeed(seeds[i]);
        for (size_t m = 0; m < members.size(); ++m) {
          const size_t sz = runners[s]->rows_of(m).size();
          if (sz != prev_size[m]) {
            member_spans[m].push_back(MemberSpan{
                static_cast<uint32_t>(i), static_cast<uint32_t>(s),
                prev_size[m], sz});
            prev_size[m] = sz;
          }
        }
        if (runners[s]->deadline_expired()) {
          expired = true;
          break;
        }
      }
    }
    if (stats != nullptr) {
      for (const auto& r : runners) {
        if (r == nullptr) continue;
        stats->expansions += r->expansions();
        stats->deadline_checks += r->deadline_checks();
      }
    }

    const size_t width = rm->return_slots.size();
    for (size_t m = 0; m < members.size(); ++m) {
      // A member's own error (row limit) beats the group deadline,
      // preferred in shard order so the outcome is deterministic.
      Status member_error = Status::OK();
      for (const auto& r : runners) {
        if (r != nullptr && !r->error_of(m).ok()) {
          member_error = r->error_of(m);
          break;
        }
      }
      if (!member_error.ok()) {
        results.push_back(member_error);
        continue;
      }
      if (expired) {
        results.push_back(internal::DeadlineExceededError());
        continue;
      }
      // Each seed lives in exactly one shard, so sorting by seed index
      // recovers the sequential emission order.
      std::sort(member_spans[m].begin(), member_spans[m].end(),
                [](const MemberSpan& a, const MemberSpan& b) {
                  return a.seed < b.seed;
                });
      RowSet merged(width, /*deduplicate=*/!rm->seeds_disjoint);
      bool over_limit = false;
      for (const MemberSpan& sp : member_spans[m]) {
        merged.InsertRange(runners[sp.shard]->rows_of(m), sp.begin, sp.end);
        over_limit = merged.size() > options.max_rows;
        if (over_limit) break;
      }
      if (over_limit) {
        results.push_back(
            Status::ResourceExhausted("MATCH row limit exceeded"));
        continue;
      }
      results.push_back(internal::RowSetToTable(rm->columns, merged));
    }
    finish_timing();
    return results;
  }

  FusedMatchRunner runner(graph, csr, *rm, std::move(slot_conditions),
                          members.size(), options.max_rows,
                          options.deadline);
  runner.Run();
  if (stats != nullptr) {
    stats->expansions = runner.expansions();
    stats->deadline_checks = runner.deadline_checks();
  }

  for (size_t m = 0; m < members.size(); ++m) {
    if (!runner.error_of(m).ok()) {
      results.push_back(runner.error_of(m));
      continue;
    }
    if (runner.deadline_expired()) {
      // The shared walk stopped early; this member's row set is partial.
      results.push_back(internal::DeadlineExceededError());
      continue;
    }
    results.push_back(internal::RowSetToTable(rm->columns, runner.rows_of(m)));
  }
  finish_timing();
  return results;
}

}  // namespace kaskade::query
