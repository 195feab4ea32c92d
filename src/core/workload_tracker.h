/// \file workload_tracker.h
/// \brief `WorkloadTracker`: a striped, lock-cheap recorder of the query
/// workload the engine actually serves.
///
/// The paper's workload analyzer (§V-B) consumes a query workload with
/// per-query importance weights ("frequency or expected execution
/// time"). In the original reproduction that workload had to be handed
/// in explicitly; the tracker closes the loop by observing every
/// `Engine::Execute` / `ExecuteBatch` call — execution count, measured
/// latency, the planner's estimated cost, and view-hit provenance — so
/// the advisor (`core/advisor.h`) can re-run view selection against what
/// the system is *really* asked, not what someone predicted.
///
/// The engine aggregates by the plan's *template key*
/// (`Plan::template_key`): queries that differ only in WHERE constants
/// share one entry, represented by the first canonical text seen. Advice
/// reads no WHERE constants and execution weights sum linearly, so this
/// advises exactly as per-text entries would, while a literal-heavy
/// workload costs one entry per query shape instead of one per literal.
///
/// Concurrency: `Record` is called on the engine's read (query) path by
/// many threads at once, so it must be cheap and must not serialize
/// readers behind one mutex. Records are hash-striped: each stripe has
/// its own mutex and aggregation map, so two concurrent recorders only
/// contend when their query texts land in the same stripe. `Snapshot`
/// locks stripes one at a time — recorders keep making progress while a
/// snapshot is being read, and the snapshot is a consistent per-stripe
/// (not globally atomic) merge, which is all frequency-based advice
/// needs.

#ifndef KASKADE_CORE_WORKLOAD_TRACKER_H_
#define KASKADE_CORE_WORKLOAD_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace kaskade::core {

/// \brief Aggregated observations for one query template.
struct QueryObservation {
  /// Canonical (parsed-and-rendered) text of the first execution
  /// recorded under this entry's key — the advisor's representative.
  std::string query_text;
  uint64_t executions = 0;       ///< Times the query ran successfully.
  double total_latency_us = 0;   ///< Sum of measured execution latencies.
  double total_estimated_cost = 0;  ///< Sum of planner cost estimates.
  uint64_t view_hits = 0;        ///< Executions served by a view rewrite.
  std::string last_view;         ///< View that served the last view hit.
  /// Executions served as members of a fused batch group (one shared
  /// traversal per plan shape, query/fused_runner.h) rather than a solo
  /// run — how much of this query's traffic cross-query fusion absorbs.
  uint64_t fused_hits = 0;

  double mean_latency_us() const {
    return executions == 0 ? 0 : total_latency_us / double(executions);
  }
};

/// \brief A merged, point-in-time copy of the tracker state.
struct WorkloadSnapshot {
  /// One entry per distinct key, sorted by descending
  /// execution count (ties broken by text) so consumers are
  /// deterministic.
  std::vector<QueryObservation> entries;
  uint64_t total_executions = 0;
};

/// \brief Striped workload recorder. All methods are thread-safe.
class WorkloadTracker {
 public:
  explicit WorkloadTracker(size_t stripes = 16);

  WorkloadTracker(const WorkloadTracker&) = delete;
  WorkloadTracker& operator=(const WorkloadTracker&) = delete;

  /// Records one successful execution under `key`; `canonical_text`
  /// becomes the entry's representative when the key is new. Distinct
  /// keys are bounded per stripe; once a stripe is full, executions
  /// under keys it has never seen are dropped (the established hot set
  /// keeps aggregating), so the tracker cannot grow without bound.
  /// `fused` marks an execution that ran as a member of a fused batch
  /// group (its latency is the group's wall clock split evenly across
  /// members).
  void Record(const std::string& key, const std::string& canonical_text,
              double latency_us, double estimated_cost, bool used_view,
              const std::string& view_name, bool fused = false);

  /// As above, keyed by the text itself.
  void Record(const std::string& canonical_text, double latency_us,
              double estimated_cost, bool used_view,
              const std::string& view_name, bool fused = false) {
    Record(canonical_text, canonical_text, latency_us, estimated_cost,
           used_view, view_name, fused);
  }

  /// Merges every stripe into a deterministic snapshot. Concurrent
  /// `Record` calls are never blocked for the whole merge (stripes are
  /// locked one at a time).
  WorkloadSnapshot Snapshot() const;

  /// Drops all recorded observations.
  void Clear();

  /// Exponentially decays every observation: execution and view-hit
  /// counts and the latency/cost aggregates are scaled by `factor` (in
  /// [0, 1]), and entries whose execution count reaches zero are erased
  /// — cold texts lose weight round over round and eventually free
  /// their stripe capacity for new hot texts. Softer than `Clear`: the
  /// hot set keeps (faded) history across advice epochs instead of
  /// starting from nothing. Stripes are decayed one at a time, so
  /// concurrent `Record` calls keep making progress.
  void Decay(double factor);

  /// Total successful executions recorded since construction (not reset
  /// by `Clear`); cheap, for triggers and telemetry.
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Number of distinct keys (for the engine: query templates) currently
  /// tracked.
  size_t distinct_queries() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, QueryObservation> entries;
  };

  Stripe& StripeFor(const std::string& key) const {
    return stripes_[std::hash<std::string>{}(key) % stripes_.size()];
  }

  mutable std::vector<Stripe> stripes_;
  std::atomic<uint64_t> total_{0};
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_WORKLOAD_TRACKER_H_
