/// \file stats.h
/// \brief Graph data properties maintained for view size estimation
/// (§V-A "Graph data properties") and degree-distribution reporting
/// (Fig. 8).
///
/// Kaskade keeps, per vertex type: the vertex cardinality and a coarse
/// out-degree distribution summary (50th/90th/95th/100th percentile).
/// These are the only statistics the size estimators of §V-A consume.

#ifndef KASKADE_GRAPH_STATS_H_
#define KASKADE_GRAPH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/property_graph.h"

namespace kaskade::graph {

/// \brief Out-degree summary for one vertex type.
struct TypeDegreeSummary {
  std::string type_name;
  size_t vertex_count = 0;
  /// Out-degree percentiles; `Percentile(alpha)` interpolates among these
  /// exactly (the full sorted degree list is retained only while building).
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p100 = 0;

  /// Returns the out-degree percentile for alpha in (0, 100].
  /// Exact for 50/90/95/100; piecewise-linear in between.
  double Percentile(double alpha) const;
};

/// Summarizes one degree per vertex (out-, in- or per-edge-type degree;
/// the summary only sees the numbers) under `name`.
TypeDegreeSummary SummarizeDegrees(const std::string& name,
                                   std::vector<size_t> degrees);

/// \brief Per-type degree statistics for a graph.
///
/// Built once after loading (and after updates, in the paper's design); a
/// pure function of the graph so there is no staleness logic here.
class GraphStats {
 public:
  /// Computes statistics for all vertex types of `graph`.
  static GraphStats Compute(const PropertyGraph& graph);

  /// Summary for a vertex type id; types with zero vertices report zeros.
  const TypeDegreeSummary& ForType(VertexTypeId type) const {
    return per_type_[type];
  }

  const std::vector<TypeDegreeSummary>& per_type() const { return per_type_; }

  /// Whole-graph (type-blind) out-degree summary.
  const TypeDegreeSummary& overall() const { return overall_; }

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return num_edges_; }

 private:
  std::vector<TypeDegreeSummary> per_type_;
  TypeDegreeSummary overall_;
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;
};

/// \brief One point of a degree-distribution CCDF: `count` vertices have
/// degree > `degree`.
struct CcdfPoint {
  size_t degree;
  size_t count;
};

/// \brief Degree-distribution report used by the Fig. 8 bench: CCDF points
/// plus a least-squares power-law exponent fit on the log-log CCDF.
struct DegreeDistribution {
  std::vector<CcdfPoint> ccdf;
  /// Fitted slope of log(ccdf) vs log(degree); for a power-law degree
  /// distribution with exponent gamma this is approximately -(gamma - 1).
  double powerlaw_slope = 0;
  /// Coefficient of determination of the linear fit (goodness of fit);
  /// close to 1 means the distribution is well modeled by a power law.
  double r_squared = 0;
};

/// Computes the out-degree CCDF (all vertices, type-blind) and fits a
/// power law. Degree-0 vertices participate in counts but log-log fitting
/// starts at degree 1.
DegreeDistribution ComputeOutDegreeDistribution(const PropertyGraph& graph);

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_STATS_H_
