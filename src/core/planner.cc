#include "core/planner.h"

#include <algorithm>
#include <optional>

#include "core/rewriter.h"
#include "graph/serialization.h"
#include "query/parser.h"

namespace kaskade::core {
namespace {

/// Serializes everything of a MATCH except its predicate constants.
/// Variable names are part of the shape: the fused runner resolves every
/// member's WHERE and RETURN against one shared pattern, and output
/// column names must match each member's solo run.
std::string MatchShapeKey(const query::MatchQuery& match) {
  std::string key;
  key.reserve(64);
  for (const query::NodePattern& n : match.nodes) {
    key += "n|";
    key += n.name;
    key += '|';
    key += n.type;
    key += ';';
  }
  for (const query::EdgePattern& e : match.edges) {
    key += "e|";
    key += e.from;
    key += '|';
    key += e.to;
    key += '|';
    key += e.type;
    key += '|';
    if (e.variable_length) {
      key += 'v';
      key += std::to_string(e.min_hops);
      key += "..";
      key += std::to_string(e.max_hops);
    } else {
      key += 'f';
    }
    key += ';';
  }
  for (const query::Condition& c : match.where) {
    key += "w|";
    key += c.lhs.base;
    key += '|';
    key += c.lhs.property;
    key += '|';
    key += std::to_string(static_cast<int>(c.op));
    key += ';';
  }
  for (const query::ReturnItem& r : match.return_items) {
    key += "r|";
    key += r.variable;
    key += '|';
    key += r.alias;
    key += ';';
  }
  return key;
}

/// Plan-cache key of `query` (see planner.h): the MATCH shape plus the
/// constants a predicate-summarizer rewrite reads (length-prefixed, so
/// values cannot run together), or the canonical text of a SELECT.
std::string TemplateKey(const query::Query& query,
                        const std::string& canonical,
                        const std::vector<std::string>& literal_keys) {
  if (!query.is_match()) return canonical;
  std::string key = MatchShapeKey(query.match());
  for (const query::Condition& c : query.match().where) {
    if (std::find(literal_keys.begin(), literal_keys.end(),
                  c.lhs.property) == literal_keys.end()) {
      continue;
    }
    const std::string value = graph::EncodePropertyValue(c.rhs);
    key += "c|";
    key += std::to_string(value.size());
    key += ':';
    key += value;
    key += ';';
  }
  return key;
}

/// Records `executed` (rendered as `text`) as what `plan` runs: its
/// text, its AST, and (for a bare MATCH) the fusion shape.
void SetExecuted(query::Query executed, std::string text, Plan* plan) {
  plan->executed_query = std::move(text);
  auto ast = std::make_shared<const query::Query>(std::move(executed));
  if (ast->is_match()) {
    plan->shape_key = MatchShapeKey(ast->match());
    plan->match_ast =
        std::shared_ptr<const query::MatchQuery>(ast, &ast->match());
  } else {
    plan->shape_key.clear();
    plan->match_ast.reset();
  }
  plan->executed_ast = std::move(ast);
}

}  // namespace

Planner::Planner(PlannerOptions options)
    : options_(options),
      shards_(std::max<size_t>(1, options.cache_shards)) {
  per_shard_capacity_ =
      (options_.cache_capacity + shards_.size() - 1) / shards_.size();
}

Status Planner::ChoosePlan(const query::Query& query,
                           const graph::PropertyGraph& base,
                           const ViewCatalog& catalog, Plan* plan) const {
  // Plan 0: the raw graph.
  plan->estimated_cost = query::EstimateEvalCost(
      query, base, catalog.base_stats(), options_.eval_cost);
  plan->view_name.clear();
  plan->canonical_query = query.ToString();
  plan->template_key = TemplateKey(query, plan->canonical_query,
                                   catalog.plan_literal_keys());
  plan->planned_generation = catalog.generation();
  std::optional<query::Query> best;

  // Plans 1..n: one per *ready* materialized view (single-view
  // rewritings, §V-C). Entries mid-build or mid-drop are never planned
  // against.
  for (const CatalogEntry* entry : catalog.Entries()) {
    if (entry->state != ViewState::kReady) continue;
    Result<query::Query> rewritten =
        RewriteQueryWithView(query, entry->view.definition, base.schema());
    if (!rewritten.ok()) continue;
    double cost = query::EstimateEvalCost(*rewritten, entry->view.graph,
                                          entry->stats, options_.eval_cost);
    if (cost < plan->estimated_cost) {
      plan->estimated_cost = cost;
      plan->view_name = entry->name();
      best = std::move(*rewritten);
    }
  }
  if (best.has_value()) {
    std::string text = best->ToString();
    SetExecuted(std::move(*best), std::move(text), plan);
  } else {
    SetExecuted(query.Clone(), plan->canonical_query, plan);
  }
  return Status::OK();
}

Status Planner::Bind(query::Query* query, const PlanTemplate& chosen,
                     const graph::PropertyGraph& base,
                     const ViewCatalog& catalog, Plan* plan) const {
  query::Query executed;
  std::string text;
  if (chosen.view_name.empty()) {
    executed = std::move(*query);
    text = plan->canonical_query;
  } else {
    const CatalogEntry* entry = catalog.Find(chosen.view_name);
    if (entry == nullptr || entry->state != ViewState::kReady) {
      return Status::NotFound("view '" + chosen.view_name + "' not ready");
    }
    KASKADE_ASSIGN_OR_RETURN(
        executed,
        RewriteQueryWithView(*query, entry->view.definition, base.schema()));
    text = executed.ToString();
  }
  plan->view_name = chosen.view_name;
  plan->estimated_cost = chosen.estimated_cost;
  plan->planned_generation = catalog.generation();
  SetExecuted(std::move(executed), std::move(text), plan);
  return Status::OK();
}

Result<Plan> Planner::PlanFor(const std::string& query_text,
                              const graph::PropertyGraph& base,
                              const ViewCatalog& catalog) {
  KASKADE_ASSIGN_OR_RETURN(query::Query query,
                           query::ParseQueryText(query_text));
  return PlanFor(std::move(query), base, catalog);
}

Result<Plan> Planner::PlanFor(query::Query query,
                              const graph::PropertyGraph& base,
                              const ViewCatalog& catalog) {
  Plan plan;
  plan.canonical_query = query.ToString();
  plan.template_key = TemplateKey(query, plan.canonical_query,
                                  catalog.plan_literal_keys());
  CacheKey key{plan.template_key, catalog.plan_epoch()};
  const bool cache_enabled = options_.cache_capacity > 0;
  if (cache_enabled) {
    std::optional<PlanTemplate> cached;
    {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        cached = it->second->second;
      }
    }
    // A failed bind cannot happen while the epoch holds, but a stale
    // template must never be served: it falls through to a full search.
    if (cached.has_value() &&
        Bind(&query, *cached, base, catalog, &plan).ok()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return plan;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  KASKADE_RETURN_IF_ERROR(ChoosePlan(query, base, catalog, &plan));

  if (cache_enabled) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    PlanTemplate chosen{plan.view_name, plan.estimated_cost};
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(chosen);
    } else {
      shard.lru.emplace_front(key, std::move(chosen));
      shard.index.emplace(key, shard.lru.begin());
      while (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
      }
    }
  }
  return plan;
}

void Planner::ClearCache() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t Planner::cache_size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace kaskade::core
