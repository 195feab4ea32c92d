// MATCH hot-path latency: CSR-backed execution vs. the legacy
// adjacency-list backtracker, plus parallel seed-partitioned scaling.
//
// Measures, per (dataset, query):
//   - legacy_seconds        adjacency-list backtracking (the old path)
//   - csr_seconds           type-partitioned CSR snapshot, 1 thread
//   - csr_speedup           legacy / csr (the tentpole number)
//   - par{2,4}_seconds      CSR backend with parallelism 2 / 4
//   - par{2,4}_scaling      median over repetitions of csr / parN time
//   - snapshot_build_seconds  one-off CsrGraph::Build cost (amortized
//                             across queries by the catalog cache)
//
// Every `*_seconds` is a best-of. The csr, par2 and par4 runs of a
// query are interleaved, one of each per repetition, and each scaling
// ratio is the median of the per-repetition ratios: a burst of host
// noise then skews one repetition's ratio, not every par4 run against
// every csr run. Scaling numbers are only meaningful on multi-core
// hosts; the `hardware_threads` metric records what this run had so the
// perf trajectory stays interpretable (a 1-core container shows ~1x).
//
// A `select` section times the paper's Table IV Q1 (the job blast
// radius) and its innermost MATCH alone over the CSR snapshot of a tenth
// of the default provenance graph, and records full / match as
// `q1_select_overhead`: the cost of the nested SELECT / GROUP BY layers
// relative to the traversal they aggregate.
//
// A `view_read` section serves Table IV's Q2 (ancestors *1..4) from a
// khop2[Job->Job] connector on the same graph, once through
// `Engine::Execute` and once through a `QueryExecutor` running the
// rewritten query on the view's own CSR snapshot, and records engine /
// executor as `q2_engine_overhead`: what the engine adds to a
// view-served read (plan-cache lookup, admission, workload tracking and
// mapping view ids back to base ids). The same section rebuilds Q2's
// result `Table` from its flat MATCH rows (`internal::RowSetToTable`)
// and frees it, and records the best time per row as
// `q2_table_ns_per_row`: what materializing a view-served read's result
// costs. It is measured under the process's default malloc settings,
// as CI and embedders run, not `perfbench`'s tuned ones.
//
// A final `fusion` section pushes a 100-query same-shape batch through
// `Engine::ExecuteBatch` with cross-query fusion on vs off and records
// the shared-traversal expansion ratio (enforced >= 10x).
//
// Usage: bench_query_latency [--json[=path]]

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/catalog.h"
#include "core/engine.h"
#include "datasets/workloads.h"
#include "graph/csr.h"
#include "query/executor.h"
#include "query/match_common.h"
#include "query/parser.h"

namespace {

using kaskade::bench::JsonReport;
using kaskade::bench::OrDie;
using kaskade::bench::PrintHeader;
using kaskade::bench::TimeSeconds;
using kaskade::graph::CsrGraph;
using kaskade::graph::PropertyGraph;
using kaskade::query::ExecutorOptions;
using kaskade::query::Query;
using kaskade::query::QueryExecutor;
using kaskade::query::Table;

struct BenchQuery {
  const char* label;
  const char* text;
};

/// Wall clock of one run of a query on one executor configuration.
double TimeOnce(QueryExecutor* executor, const Query& query,
                size_t* rows_out) {
  return TimeSeconds([&] {
    auto result = executor->Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    *rows_out = result->num_rows();
  });
}

/// Best-of-N wall clock of one query on one executor configuration.
double BestOf(int reps, QueryExecutor* executor, const Query& query,
              size_t* rows_out) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, TimeOnce(executor, query, rows_out));
  }
  return best;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Parses `text`, exiting on a parse error.
Query MustParse(const std::string& text) {
  auto query = kaskade::query::ParseQueryText(text);
  if (!query.ok()) {
    std::fprintf(stderr, "query does not parse: %s\n",
                 query.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*query);
}

void RunDataset(const std::string& section, const PropertyGraph& g,
                const std::vector<BenchQuery>& queries) {
  PrintHeader(section);
  CsrGraph csr;
  double build_secs = TimeSeconds([&] { csr = CsrGraph::Build(g); });
  JsonReport::Record(section, "snapshot_build_seconds", build_secs);
  std::printf("snapshot build: %.4fs (%zu vertices, %zu edges)\n", build_secs,
              csr.NumVertices(), csr.NumEdges());
  std::printf("%-28s %10s %10s %8s %10s %10s\n", "query", "legacy(s)",
              "csr(s)", "speedup", "par2", "par4");

  const int legacy_reps = 3;
  const int split_reps = 9;  // odd, so the median ratio is one run's
  for (const BenchQuery& q : queries) {
    const Query query = MustParse(q.text);
    QueryExecutor legacy(&g);
    ExecutorOptions seq_opts;
    QueryExecutor csr_seq(&g, &csr, seq_opts);
    ExecutorOptions par2_opts;
    par2_opts.parallelism = 2;
    QueryExecutor csr_par2(&g, &csr, par2_opts);
    ExecutorOptions par4_opts;
    par4_opts.parallelism = 4;
    QueryExecutor csr_par4(&g, &csr, par4_opts);

    size_t legacy_rows = 0, csr_rows = 0, par2_rows = 0, par4_rows = 0;
    const double legacy_s =
        BestOf(legacy_reps, &legacy, query, &legacy_rows);
    double csr_s = 1e100, par2_s = 1e100, par4_s = 1e100;
    std::vector<double> par2_ratios, par4_ratios;
    for (int r = 0; r < split_reps; ++r) {
      const double csr_r = TimeOnce(&csr_seq, query, &csr_rows);
      const double par2_r = TimeOnce(&csr_par2, query, &par2_rows);
      const double par4_r = TimeOnce(&csr_par4, query, &par4_rows);
      csr_s = std::min(csr_s, csr_r);
      par2_s = std::min(par2_s, par2_r);
      par4_s = std::min(par4_s, par4_r);
      par2_ratios.push_back(csr_r / par2_r);
      par4_ratios.push_back(csr_r / par4_r);
    }
    const double par2_scaling = Median(std::move(par2_ratios));
    const double par4_scaling = Median(std::move(par4_ratios));
    if (csr_rows != legacy_rows || par2_rows != legacy_rows ||
        par4_rows != legacy_rows) {
      std::fprintf(stderr,
                   "row-count divergence on %s: legacy=%zu csr=%zu "
                   "par2=%zu par4=%zu\n",
                   q.label, legacy_rows, csr_rows, par2_rows, par4_rows);
      std::exit(1);
    }

    const std::string metric = q.label;
    JsonReport::Record(section, metric + "_legacy_seconds", legacy_s);
    JsonReport::Record(section, metric + "_csr_seconds", csr_s);
    JsonReport::Record(section, metric + "_csr_speedup", legacy_s / csr_s);
    JsonReport::Record(section, metric + "_par2_seconds", par2_s);
    JsonReport::Record(section, metric + "_par2_scaling", par2_scaling);
    JsonReport::Record(section, metric + "_par4_seconds", par4_s);
    JsonReport::Record(section, metric + "_par4_scaling", par4_scaling);
    JsonReport::Record(section, metric + "_rows",
                       static_cast<double>(legacy_rows));
    std::printf("%-28s %10.4f %10.4f %7.2fx %9.2fx %9.2fx  (%zu rows)\n",
                q.label, legacy_s, csr_s, legacy_s / csr_s, par2_scaling,
                par4_scaling, legacy_rows);
  }
}

/// A tenth of the default provenance graph (1,250 vertices).
PropertyGraph TenthProvGraph() {
  kaskade::datasets::ProvOptions options;
  options.num_jobs /= 10;
  options.num_files /= 10;
  options.num_tasks /= 10;
  return kaskade::datasets::MakeProvenanceGraph(options);
}

/// Table IV Q1 against its own innermost MATCH, both over one CSR
/// snapshot of the 0.1x provenance graph.
void RunSelectSection() {
  PrintHeader("select");
  const PropertyGraph g = TenthProvGraph();
  const CsrGraph csr = CsrGraph::Build(g);
  QueryExecutor executor(&g, &csr);

  const Query q1 = MustParse(kaskade::datasets::BlastRadiusQueryText());
  Query match;
  match.node = *q1.InnermostMatch();

  const int reps = 7;
  size_t match_rows = 0, q1_rows = 0;
  const double match_s = BestOf(reps, &executor, match, &match_rows);
  const double full_s = BestOf(reps, &executor, q1, &q1_rows);
  JsonReport::Record("select", "q1_match_rows", double(match_rows));
  JsonReport::Record("select", "q1_rows", double(q1_rows));
  JsonReport::Record("select", "q1_match_seconds", match_s);
  JsonReport::Record("select", "q1_full_seconds", full_s);
  JsonReport::Record("select", "q1_select_overhead", full_s / match_s);
  std::printf("Q1 over %zu vertices: MATCH %.4fs (%zu rows), full %.4fs "
              "(%zu rows), full / match %.2fx\n",
              g.NumVertices(), match_s, match_rows, full_s, q1_rows,
              full_s / match_s);
}

/// Q2 served by a khop2[Job->Job] connector: `Engine::Execute` against
/// the executor alone on the view's snapshot, best of alternating runs.
void RunViewReadSection() {
  PrintHeader("view_read");
  kaskade::core::Engine engine(TenthProvGraph());
  kaskade::core::ViewDefinition khop2;
  khop2.kind = kaskade::core::ViewKind::kKHopConnector;
  khop2.k = 2;
  khop2.source_type = "Job";
  khop2.target_type = "Job";
  OrDie(engine.AddMaterializedView(khop2), "khop2 view");

  const std::string q2 = kaskade::datasets::AncestorsQueryText("Job", 4);
  const kaskade::core::ExecutionResult served =
      OrDie(engine.Execute(q2), "Q2 through the engine");
  if (!served.used_view) {
    std::fprintf(stderr, "Q2 was not served by the khop2 view\n");
    std::exit(1);
  }
  const kaskade::core::CatalogEntry* entry =
      engine.catalog().Find(served.view_name);
  const auto snapshot = engine.catalog().SnapshotFor(entry->handle);
  QueryExecutor executor(&entry->view.graph, snapshot.get());
  const Query rewritten = MustParse(served.executed_query);

  const int reps = 40;
  double engine_s = 1e100, executor_s = 1e100;
  size_t engine_rows = 0, executor_rows = 0;
  for (int r = 0; r < reps; ++r) {
    engine_s = std::min(engine_s, TimeSeconds([&] {
                          engine_rows =
                              OrDie(engine.Execute(q2), "Q2").table.num_rows();
                        }));
    executor_s = std::min(executor_s,
                          BestOf(1, &executor, rewritten, &executor_rows));
  }
  if (engine_rows != executor_rows) {
    std::fprintf(stderr, "Q2 row divergence: engine=%zu executor=%zu\n",
                 engine_rows, executor_rows);
    std::exit(1);
  }
  JsonReport::Record("view_read", "q2_rows", double(engine_rows));
  JsonReport::Record("view_read", "q2_engine_seconds", engine_s);
  JsonReport::Record("view_read", "q2_executor_seconds", executor_s);
  JsonReport::Record("view_read", "q2_engine_overhead", engine_s / executor_s);
  std::printf("Q2 over %s (%zu rows): engine %.6fs, executor on the view "
              "snapshot %.6fs, engine / executor %.2fx\n",
              served.view_name.c_str(), engine_rows, engine_s, executor_s,
              engine_s / executor_s);

  // Q2's rows as the CSR drivers hand them over, then built into a
  // `Table` and freed, best of `reps`.
  const Table result = OrDie(executor.Execute(rewritten), "Q2 on the view");
  kaskade::query::internal::RowSet rows(result.num_columns(),
                                        /*deduplicate=*/false);
  std::vector<kaskade::graph::VertexId> ids(result.num_columns());
  for (const auto& row : result.rows()) {
    for (size_t c = 0; c < ids.size(); ++c) {
      ids[c] = static_cast<kaskade::graph::VertexId>(row[c].as_int());
    }
    rows.Insert(ids.data());
  }
  double table_s = 1e100;
  size_t table_rows = 0;
  for (int r = 0; r < reps; ++r) {
    table_s = std::min(table_s, TimeSeconds([&] {
                         const Table built =
                             kaskade::query::internal::RowSetToTable(
                                 result.columns(), rows);
                         table_rows = built.num_rows();
                       }));
  }
  if (table_rows != engine_rows) {
    std::fprintf(stderr, "Q2 table rows %zu, expected %zu\n", table_rows,
                 engine_rows);
    std::exit(1);
  }
  const double ns_per_row = table_s * 1e9 / double(table_rows);
  JsonReport::Record("view_read", "q2_table_ns_per_row", ns_per_row);
  std::printf("Q2 result Table build + free: %.6fs, %.1f ns per row\n",
              table_s, ns_per_row);
}

/// Cross-query fusion: a 100-query batch of one plan shape (constants
/// differ) through two engines, fusion on vs off. The fused engine runs
/// one shared traversal per shape group where the unfused engine pays
/// the full traversal per member, so the expansion ratio should sit
/// near the batch size; the bench enforces a conservative 10x floor.
void RunFusionSection() {
  PrintHeader("fusion");
  kaskade::core::EngineOptions unfused_opts;
  unfused_opts.executor.fusion.enabled = false;
  kaskade::core::Engine fused(kaskade::bench::BenchProvRaw());
  kaskade::core::Engine unfused(kaskade::bench::BenchProvRaw(), unfused_opts);

  constexpr int kBatchSize = 100;
  std::vector<std::string> batch;
  batch.reserve(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) {
    // 20 distinct pipelines exist; every constant (matching or not)
    // keeps the same shape key, which is all fusion grouping needs.
    batch.push_back(
        "MATCH (a:Job)-[:WRITES_TO]->(f:File) WHERE a.pipelineName = "
        "'pipeline_" +
        std::to_string(i % 25) + "' RETURN a, f");
  }

  const int reps = 3;
  double fused_s = 1e100, unfused_s = 1e100;
  size_t fused_rows = 0, unfused_rows = 0;
  for (int r = 0; r < reps; ++r) {
    size_t rows = 0;
    double secs = TimeSeconds([&] {
      for (const auto& result : fused.ExecuteBatch(batch)) {
        if (!result.ok()) {
          std::fprintf(stderr, "fused batch failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
        rows += result->table.num_rows();
      }
    });
    fused_rows = rows;
    if (secs < fused_s) fused_s = secs;
    rows = 0;
    secs = TimeSeconds([&] {
      for (const auto& result : unfused.ExecuteBatch(batch)) {
        if (!result.ok()) {
          std::fprintf(stderr, "unfused batch failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
        rows += result->table.num_rows();
      }
    });
    unfused_rows = rows;
    if (secs < unfused_s) unfused_s = secs;
  }
  if (fused_rows != unfused_rows) {
    std::fprintf(stderr, "fusion row divergence: fused=%zu unfused=%zu\n",
                 fused_rows, unfused_rows);
    std::exit(1);
  }

  const double fused_exp = double(fused.traversal_expansions()) / reps;
  const double unfused_exp = double(unfused.traversal_expansions()) / reps;
  const double ratio = fused_exp > 0 ? unfused_exp / fused_exp : 0;
  JsonReport::Record("fusion", "batch_size", double(kBatchSize));
  JsonReport::Record("fusion", "rows", double(fused_rows));
  JsonReport::Record("fusion", "fused_seconds", fused_s);
  JsonReport::Record("fusion", "unfused_seconds", unfused_s);
  JsonReport::Record("fusion", "batch_speedup", unfused_s / fused_s);
  JsonReport::Record("fusion", "fused_expansions_per_batch", fused_exp);
  JsonReport::Record("fusion", "unfused_expansions_per_batch", unfused_exp);
  JsonReport::Record("fusion", "expansion_ratio", ratio);
  std::printf("batch of %d same-shape queries: %.4fs fused vs %.4fs solo "
              "(%.2fx), expansions %.0f vs %.0f (%.1fx fewer)\n",
              kBatchSize, fused_s, unfused_s, unfused_s / fused_s, fused_exp,
              unfused_exp, ratio);
  if (ratio < 10.0) {
    std::fprintf(stderr,
                 "fusion expansion ratio %.1fx below the 10x floor\n", ratio);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport::Init(argc, argv, "query_latency");
  JsonReport::Record("meta", "hardware_threads",
                     static_cast<double>(std::thread::hardware_concurrency()));

  // Heterogeneous provenance graph (5 vertex / 6 edge types): typed
  // expansion has the most to skip, the paper's primary workload. The
  // `_proj` variants project a subset of the pattern variables — the
  // shape of the paper's Listing 1 (MATCH feeding GROUP BY) — where
  // enumeration, not result materialization, dominates; the full-output
  // variants are bounded below by the shared Table-building cost both
  // backends pay per emitted row.
  RunDataset(
      "prov", kaskade::bench::BenchProvRaw(),
      {
          {"typed_2hop",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b"},
          {"typed_2hop_proj",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) RETURN a"},
          {"typed_3hop",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) (b:Job)-[:WRITES_TO]->(g:File) "
           "RETURN a, b, g"},
          {"typed_3hop_proj",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) (b:Job)-[:WRITES_TO]->(g:File) "
           "RETURN a, b"},
          {"varlen_0_4",
           "MATCH (a:File)-[r*0..4]->(b:File) RETURN a, b"},
          {"spawn_fanout",
           "MATCH (u:User)-[:SUBMITS]->(j:Job) (j:Job)-[:SPAWNS]->(t:Task) "
           "RETURN u, t"},
      });

  // Pre-summarized provenance (jobs + files only): the §VII-B runtime
  // input; fewer types, denser bipartite core.
  RunDataset(
      "prov_summarized", kaskade::bench::BenchProvFiltered(),
      {
          {"typed_2hop",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b"},
          {"typed_3hop",
           "MATCH (a:Job)-[:WRITES_TO]->(f:File) "
           "(f:File)-[:IS_READ_BY]->(b:Job) (b:Job)-[:WRITES_TO]->(g:File) "
           "RETURN a, b, g"},
      });

  // Homogeneous social graph: enumeration-heavy expansion over skewed
  // degrees, the parallel-scaling workload. Scaled to 2000 vertices —
  // the preferential-attachment hubs make multi-hop output quadratic,
  // and the full bench-scale graph (4000) already takes minutes on the
  // legacy path, too slow for a CI smoke job.
  kaskade::datasets::SocialOptions social;
  social.num_vertices = 2000;
  social.edges_per_vertex = 6;
  RunDataset(
      "social", kaskade::datasets::MakeSocialGraph(social),
      {
          {"follows_2hop",
           "MATCH (a:Person)-[:FOLLOWS]->(b:Person) "
           "(b:Person)-[:FOLLOWS]->(c:Person) RETURN a, c"},
          {"triangle_filter",
           "MATCH (a:Person)-[:FOLLOWS]->(b:Person) "
           "(b:Person)-[:FOLLOWS]->(c:Person) (a:Person)-[:FOLLOWS]->(c:Person) "
           "RETURN a, c"},
      });

  // Road grid: sparse uniform degrees, deep traversals with bounded
  // fan-out — the long-chain enumeration profile.
  RunDataset(
      "road", kaskade::bench::BenchRoad(),
      {
          {"road_3hop",
           "MATCH (a:Intersection)-[:ROAD]->(b:Intersection) "
           "(b:Intersection)-[:ROAD]->(c:Intersection) "
           "(c:Intersection)-[:ROAD]->(d:Intersection) RETURN a, d"},
          {"varlen_1_6",
           "MATCH (a:Intersection)-[r*1..6]->(b:Intersection) RETURN a, b"},
      });

  RunSelectSection();
  RunViewReadSection();
  RunFusionSection();

  return JsonReport::Finish();
}
