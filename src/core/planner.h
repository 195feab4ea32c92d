/// \file planner.h
/// \brief `Planner`: plan enumeration and costing (the "query rewriter"
/// box of Fig. 2, §V-C), with a sharded LRU cache of plan templates.
///
/// For a query, the planner considers the raw graph plus one single-view
/// rewriting per catalog entry (the paper's single-view-per-rewrite
/// restriction) and picks the cheapest by estimated evaluation cost.
/// Costing reads statistics the catalog keeps (base and per view); it
/// never scans a graph.
///
/// Plan choice is a per-*template* decision: the cache is keyed by
/// `(template key, catalog plan epoch)`. A MATCH's template key is its
/// shape with the WHERE constants dropped — costing never reads them,
/// and the rewriter reads only those a predicate-summarizer view
/// filters on, which the key keeps (`ViewCatalog::plan_literal_keys`).
/// A SELECT shell's key is its canonical text. The plan epoch moves
/// only on planner-visible catalog changes (views added, published,
/// dropped or quarantined, `RefreshAll`, statistics refreshes), so a
/// cached template survives base-graph writes; a stale epoch simply
/// never matches again and ages out of the LRU.
///
/// A cached template holds only the chosen view and its estimated cost.
/// On a hit the planner *binds* it to the query's own literals: it
/// re-runs the rewrite against that one view (no costing) and stamps
/// the plan with the catalog's current generation, which pins the CSR
/// snapshot execution runs over. When the view is no longer `kReady` or
/// the rewrite fails, the lookup falls back to a full search and counts
/// as a miss. The cache is sharded and mutex-striped so concurrent
/// executors contend only per shard, not on one global lock.

#ifndef KASKADE_CORE_PLANNER_H_
#define KASKADE_CORE_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/catalog.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/cost.h"

namespace kaskade::core {

/// \brief A chosen execution plan for one query.
struct Plan {
  std::string view_name;       ///< Empty = run on the raw graph.
  std::string executed_query;  ///< Rendered (possibly rewritten) text.
  /// Canonical (parsed-and-rendered) text of the *original* query.
  std::string canonical_query;
  /// Plan-cache key of the original query (see file comment), also the
  /// workload tracker's aggregation key: queries that differ only in
  /// constants plan alike and aggregate as one template.
  std::string template_key;
  double estimated_cost = 0;
  /// Catalog generation the plan was chosen or bound at. Execution
  /// resolves the CSR topology snapshot for this exact generation — a
  /// plan never runs over a snapshot newer or older than the catalog
  /// state it was bound against.
  uint64_t planned_generation = 0;
  /// Parsed `executed_query` — what execution runs, so nothing
  /// downstream of the planner parses again. Shared (and immutable) so
  /// `Plan` stays cheaply copyable.
  std::shared_ptr<const query::Query> executed_ast;
  /// Canonical shape of the *executed* query when it is a bare MATCH:
  /// node names/types, edge topology/types/hop bounds, WHERE structure
  /// (variable, property, operator — the constants are lifted out), and
  /// RETURN items. Two plans with equal shape keys (and equal view /
  /// generation) differ at most in predicate constants, so the batch
  /// executor can run them as one fused traversal
  /// (query/fused_runner.h). Empty = not fusable (SELECT shell).
  std::string shape_key;
  /// The MATCH inside `executed_ast` when `shape_key` is set — what the
  /// fused runner consumes.
  std::shared_ptr<const query::MatchQuery> match_ast;
};

/// \brief Planner configuration.
struct PlannerOptions {
  /// Cost-proxy options forwarded to `query::EstimateEvalCost`.
  query::CostModelOptions eval_cost;
  /// Target total cached plan templates; 0 disables caching. Enforced per shard
  /// as ceil(capacity / shards), so the live total can exceed this by
  /// up to shards-1 entries.
  size_t cache_capacity = 4096;
  /// Mutex stripes. Bounded lock contention under concurrent execution.
  size_t cache_shards = 8;
};

/// \brief Plan enumeration + costing with a template-keyed plan cache.
///
/// Thread-safety: all methods are safe to call concurrently; cache
/// shards carry their own mutexes and telemetry counters are atomic.
/// The caller must prevent concurrent mutation of `base` and `catalog`
/// for the duration of a call (the Engine's reader lock does this).
class Planner {
 public:
  explicit Planner(PlannerOptions options = {});

  /// Uncached plan search: costs the raw graph and every `kReady`
  /// catalog entry with the catalog's statistics, returns the cheapest
  /// plan.
  Status ChoosePlan(const query::Query& query,
                    const graph::PropertyGraph& base,
                    const ViewCatalog& catalog, Plan* plan) const;

  /// Parses `query_text` and plans it through the template cache.
  Result<Plan> PlanFor(const std::string& query_text,
                       const graph::PropertyGraph& base,
                       const ViewCatalog& catalog);

  /// Cached plan lookup keyed by `(template key, catalog.plan_epoch())`:
  /// binds a cached template to `query` on a hit, runs `ChoosePlan` and
  /// caches its template on a miss.
  Result<Plan> PlanFor(query::Query query, const graph::PropertyGraph& base,
                       const ViewCatalog& catalog);

  /// Drops every cached template (telemetry is preserved). Rarely
  /// needed — epoch keying already invalidates — but useful for tests
  /// and for bounding memory after bursts.
  void ClearCache();

  /// \name Plan-cache telemetry (for tests and operations). A hit whose
  /// binding failed counts as a miss.
  /// @{
  size_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  size_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  size_t cache_size() const;
  /// @}

 private:
  struct CacheKey {
    std::string template_key;
    uint64_t plan_epoch = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      size_t h = std::hash<std::string>{}(key.template_key);
      return h ^ (std::hash<uint64_t>{}(key.plan_epoch) +
                  0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };
  /// What a cache entry keeps of a plan: the choice, not its texts.
  struct PlanTemplate {
    std::string view_name;
    double estimated_cost = 0;
  };
  /// One LRU stripe: most-recently-used at the front.
  struct Shard {
    std::mutex mu;
    std::list<std::pair<CacheKey, PlanTemplate>> lru;
    std::unordered_map<CacheKey,
                       std::list<std::pair<CacheKey, PlanTemplate>>::iterator,
                       CacheKeyHash>
        index;
  };

  /// Fills `plan` (whose `canonical_query` renders `*query`) for running
  /// `*query` per `chosen`: re-runs the rewrite against the chosen view
  /// (no costing) and stamps the catalog's current generation. A
  /// raw-graph template moves `*query` into the plan. Fails, leaving
  /// `*query` intact, when the view is not `kReady` or no longer
  /// rewrites the query.
  Status Bind(query::Query* query, const PlanTemplate& chosen,
              const graph::PropertyGraph& base, const ViewCatalog& catalog,
              Plan* plan) const;

  Shard& ShardFor(const CacheKey& key) const {
    return shards_[CacheKeyHash{}(key) % shards_.size()];
  }

  PlannerOptions options_;
  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_PLANNER_H_
