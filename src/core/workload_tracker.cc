#include "core/workload_tracker.h"

#include <algorithm>

namespace kaskade::core {

WorkloadTracker::WorkloadTracker(size_t stripes)
    : stripes_(std::max<size_t>(1, stripes)) {}

void WorkloadTracker::Record(const std::string& key,
                             const std::string& canonical_text,
                             double latency_us, double estimated_cost,
                             bool used_view, const std::string& view_name,
                             bool fused) {
  // Bound distinct keys per stripe (an unbounded key space would grow
  // the maps toward OOM and slow every advice round). New keys past the
  // cap are not tracked — the established hot set, which is what advice
  // is about, keeps aggregating.
  constexpr size_t kMaxDistinctPerStripe = 4096;
  Stripe& stripe = StripeFor(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.entries.find(key);
    if (it == stripe.entries.end()) {
      if (stripe.entries.size() >= kMaxDistinctPerStripe) return;
      it = stripe.entries.emplace(key, QueryObservation{}).first;
      it->second.query_text = canonical_text;
    }
    QueryObservation& obs = it->second;
    ++obs.executions;
    obs.total_latency_us += latency_us;
    obs.total_estimated_cost += estimated_cost;
    if (used_view) {
      ++obs.view_hits;
      obs.last_view = view_name;
    }
    if (fused) ++obs.fused_hits;
  }
  total_.fetch_add(1, std::memory_order_relaxed);
}

WorkloadSnapshot WorkloadTracker::Snapshot() const {
  WorkloadSnapshot snapshot;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [text, obs] : stripe.entries) {
      snapshot.entries.push_back(obs);
      snapshot.total_executions += obs.executions;
    }
  }
  std::sort(snapshot.entries.begin(), snapshot.entries.end(),
            [](const QueryObservation& a, const QueryObservation& b) {
              if (a.executions != b.executions) {
                return a.executions > b.executions;
              }
              return a.query_text < b.query_text;
            });
  return snapshot;
}

void WorkloadTracker::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.entries.clear();
  }
}

void WorkloadTracker::Decay(double factor) {
  factor = std::clamp(factor, 0.0, 1.0);
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.entries.begin(); it != stripe.entries.end();) {
      QueryObservation& obs = it->second;
      // Truncating keeps counts integral and guarantees progress: any
      // factor < 1 eventually drives an un-refreshed count to zero.
      obs.executions = uint64_t(double(obs.executions) * factor);
      obs.view_hits = uint64_t(double(obs.view_hits) * factor);
      obs.fused_hits = uint64_t(double(obs.fused_hits) * factor);
      obs.total_latency_us *= factor;
      obs.total_estimated_cost *= factor;
      if (obs.executions == 0) {
        it = stripe.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t WorkloadTracker::distinct_queries() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    count += stripe.entries.size();
  }
  return count;
}

}  // namespace kaskade::core
