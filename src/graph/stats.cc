#include "graph/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace kaskade::graph {

namespace {

/// Nearest-rank percentile of a sorted vector (alpha in (0, 100]).
double SortedPercentile(const std::vector<size_t>& sorted, double alpha) {
  if (sorted.empty()) return 0;
  if (alpha >= 100) return static_cast<double>(sorted.back());
  double rank = alpha / 100.0 * static_cast<double>(sorted.size());
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return static_cast<double>(sorted[idx]);
}

}  // namespace

TypeDegreeSummary SummarizeDegrees(const std::string& name,
                                   std::vector<size_t> degrees) {
  TypeDegreeSummary s;
  s.type_name = name;
  s.vertex_count = degrees.size();
  std::sort(degrees.begin(), degrees.end());
  s.p50 = SortedPercentile(degrees, 50);
  s.p90 = SortedPercentile(degrees, 90);
  s.p95 = SortedPercentile(degrees, 95);
  s.p100 = SortedPercentile(degrees, 100);
  return s;
}

double TypeDegreeSummary::Percentile(double alpha) const {
  if (alpha <= 50) return p50;
  if (alpha >= 100) return p100;
  // Piecewise-linear interpolation across the retained summary points.
  auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
  if (alpha <= 90) return lerp(p50, p90, (alpha - 50) / 40.0);
  if (alpha <= 95) return lerp(p90, p95, (alpha - 90) / 5.0);
  return lerp(p95, p100, (alpha - 95) / 5.0);
}

GraphStats GraphStats::Compute(const PropertyGraph& graph) {
  GraphStats stats;
  stats.num_vertices_ = graph.NumLiveVertices();
  stats.num_edges_ = graph.NumLiveEdges();

  const size_t num_types = graph.schema().num_vertex_types();
  std::vector<std::vector<size_t>> degrees_by_type(num_types);
  std::vector<size_t> all_degrees;
  all_degrees.reserve(graph.NumLiveVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!graph.IsVertexLive(v)) continue;
    degrees_by_type[graph.VertexType(v)].push_back(graph.OutDegree(v));
    all_degrees.push_back(graph.OutDegree(v));
  }
  stats.per_type_.reserve(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    stats.per_type_.push_back(SummarizeDegrees(
        graph.schema().vertex_type_name(static_cast<VertexTypeId>(t)),
        std::move(degrees_by_type[t])));
  }
  stats.overall_ = SummarizeDegrees("*", std::move(all_degrees));
  return stats;
}

DegreeDistribution ComputeOutDegreeDistribution(const PropertyGraph& graph) {
  DegreeDistribution dist;
  std::map<size_t, size_t> histogram;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!graph.IsVertexLive(v)) continue;
    ++histogram[graph.OutDegree(v)];
  }
  // CCDF: count of vertices with degree strictly greater than d, for each
  // observed degree d.
  size_t above = graph.NumLiveVertices();
  for (const auto& [degree, count] : histogram) {
    above -= count;
    dist.ccdf.push_back(CcdfPoint{degree, above});
  }
  // Least-squares fit of log10(count) against log10(degree), degrees >= 1
  // and counts >= 1 only.
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  size_t n = 0;
  for (const CcdfPoint& p : dist.ccdf) {
    if (p.degree < 1 || p.count < 1) continue;
    double x = std::log10(static_cast<double>(p.degree));
    double y = std::log10(static_cast<double>(p.count));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
    ++n;
  }
  if (n >= 2) {
    double denom = static_cast<double>(n) * sxx - sx * sx;
    if (denom != 0) {
      dist.powerlaw_slope = (static_cast<double>(n) * sxy - sx * sy) / denom;
      double ss_tot = syy - sy * sy / static_cast<double>(n);
      double intercept = (sy - dist.powerlaw_slope * sx) / static_cast<double>(n);
      double ss_res = 0;
      for (const CcdfPoint& p : dist.ccdf) {
        if (p.degree < 1 || p.count < 1) continue;
        double x = std::log10(static_cast<double>(p.degree));
        double y = std::log10(static_cast<double>(p.count));
        double pred = intercept + dist.powerlaw_slope * x;
        ss_res += (y - pred) * (y - pred);
      }
      dist.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
    }
  }
  return dist;
}

}  // namespace kaskade::graph
