/// \file stats.h
/// \brief Latency samples, percentiles and the tail rule the benchmark
/// reports by.
///
/// Percentiles are nearest-rank and given in parts per thousand, so the
/// rank arithmetic is exact integer arithmetic. A tail percentile is only
/// reported when at least `kMinBeyondTail` samples lie beyond it: a p99
/// needs 1000 samples, a p90 needs 100.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kMinBeyondTail = 10;

/// Percentiles the benchmark reports, in parts per thousand.
inline constexpr int kP50 = 500;
inline constexpr int kP90 = 900;
inline constexpr int kP99 = 990;
inline constexpr int kP999 = 999;

/// 1-based nearest rank of percentile `per_mille` among `n` samples.
constexpr size_t NearestRank(size_t n, int per_mille) {
  size_t rank = (static_cast<size_t>(per_mille) * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

/// True when `n` samples leave at least `kMinBeyondTail` beyond the
/// nearest rank of `per_mille`.
constexpr bool TailAllowed(size_t n, int per_mille) {
  return n > 0 && n - NearestRank(n, per_mille) >= kMinBeyondTail;
}

/// The highest of p99.9 / p99 / p90 / p50 that `n` samples support under
/// the tail rule; nullopt when not even the median does.
inline std::optional<int> HighestTail(size_t n) {
  for (int p : {kP999, kP99, kP90, kP50}) {
    if (TailAllowed(n, p)) return p;
  }
  return std::nullopt;
}

/// A growable set of samples of one quantity (one latency class).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / values_.size(); }

  /// Nearest-rank percentile; nullopt when empty.
  std::optional<double> Percentile(int per_mille) const {
    if (values_.empty()) return std::nullopt;
    std::vector<double> sorted = values_;
    size_t k = NearestRank(sorted.size(), per_mille) - 1;
    std::nth_element(sorted.begin(), sorted.begin() + k, sorted.end());
    return sorted[k];
  }

  /// The percentile only when the tail rule allows it.
  std::optional<double> Tail(int per_mille) const {
    if (!TailAllowed(values_.size(), per_mille)) return std::nullopt;
    return Percentile(per_mille);
  }

 private:
  std::vector<double> values_;
};

/// Median of a small vector (set-up repeats, window percentiles).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples of one class with the time each was observed. A gated
/// percentile is the median, over `windows` consecutive runs of samples
/// of equal count in time order, of each one's percentile: a burst of
/// outside load that spans one part of the run then moves one window's
/// value, not the run's.
class WindowedSamples {
 public:
  /// Adds `v`, observed `at_s` seconds after the run started.
  void Add(double at_s, double v) {
    timed_.emplace_back(at_s, v);
    all_.Add(v);
  }
  void Append(const WindowedSamples& other) {
    timed_.insert(timed_.end(), other.timed_.begin(), other.timed_.end());
    all_.Append(other.all_);
  }

  const Samples& all() const { return all_; }
  size_t size() const { return timed_.size(); }

  /// Median of the windows' percentiles; nullopt when a window's samples
  /// cannot support `per_mille` under the tail rule.
  std::optional<double> WindowMedian(int per_mille, size_t windows) const {
    std::vector<std::pair<double, double>> sorted = timed_;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> values;
    for (size_t w = 0; w < windows; ++w) {
      Samples window;
      for (size_t i = w * sorted.size() / windows;
           i < (w + 1) * sorted.size() / windows; ++i) {
        window.Add(sorted[i].second);
      }
      std::optional<double> v = window.Tail(per_mille);
      if (!v.has_value()) return std::nullopt;
      values.push_back(*v);
    }
    return Median(std::move(values));
  }

 private:
  std::vector<std::pair<double, double>> timed_;
  Samples all_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
