/// \file social.cc
/// \brief The `social_point` workload: two clients send Zipf-skewed,
/// handle-anchored 1-hop / 2-hop / `*1..2` lookups, a tenth of them as
/// `ExecuteBatch` calls of same-template lookups, over a social graph
/// whose CSR is larger than a core's L2. No views, no writes.

#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "datasets/generators.h"
#include "graph/csr.h"
#include "opstream.h"
#include "query/executor.h"

namespace perfbench {
namespace {

using kaskade::Result;
using kaskade::core::Engine;
using kaskade::core::EngineOptions;
using kaskade::core::ExecutionResult;
using kaskade::graph::PropertyGraph;
using kaskade::graph::VertexId;

/// Fixed dataset: 60k Persons, about 220k FOLLOWS edges (an 8 MB CSR),
/// from the generator's default seed; the workload seed drives the op
/// streams only.
constexpr size_t kPersons = 60000;
constexpr size_t kEdgesPerPerson = 1;
constexpr size_t kClients = 2;
constexpr int kBatchPerMille = 100;
constexpr size_t kBatchSize = 8;
/// Engine batch workers: two clients times two workers stays within the
/// four hardware threads the benchmark is sized for.
constexpr size_t kBatchWorkers = 2;
constexpr size_t kSetupRepeats = 9;
/// Every this many solo lookups (resp. batches) per client, the answer is
/// kept and checked after the run.
constexpr size_t kCheckPointEvery = 40;
constexpr size_t kCheckBatchEvery = 8;

std::string LookupText(int template_index, const std::string& handle) {
  switch (template_index) {
    case 0:
      return "MATCH (a:Person)-[:FOLLOWS]->(b:Person) WHERE a.handle = '" +
             handle + "' RETURN a, b";
    case 1:
      return "MATCH (a:Person)-[:FOLLOWS]->(b:Person) "
             "(b:Person)-[:FOLLOWS]->(c:Person) WHERE a.handle = '" +
             handle + "' RETURN a, c";
    default:
      return "MATCH (a:Person)-[r*1..2]->(b:Person) WHERE a.handle = '" +
             handle + "' RETURN b";
  }
}

struct Sample {
  std::string text;
  uint64_t digest = 0;
};

/// What one client thread measured.
struct ClientResult {
  WindowedSamples point_us, batch_us;
  Samples per_template_us[3];
  uint64_t attempted = 0, failed = 0, reads = 0;
  std::vector<Sample> points;                // Sampled solo answers.
  std::vector<std::vector<Sample>> batches;  // Sampled batch answers.
  std::unordered_set<std::string> texts;
  std::vector<std::string> errors;
  uint64_t digest = 0;
  LayerTotals totals;
};

void RunClient(Engine* engine, const EngineOptions& options,
               kaskade::core::Planner* mirror, Tracer* tracer,
               const std::vector<std::string>& handles, uint64_t seed,
               size_t client, Clock::time_point start,
               Clock::time_point deadline, Clock::time_point hard_stop,
               ClientResult* out) {
  SocialStream stream(seed, client, handles.size(), kBatchPerMille, kBatchSize);
  ReadPath path(engine, options, mirror, tracer, &out->totals);
  size_t solo_ops = 0, batch_ops = 0;
  while (true) {
    Clock::time_point now = Clock::now();
    // Untraced runs go on until this client has its share of the gated
    // classes' samples.
    bool enough = tracer != nullptr ||
                  (EnoughForGating(out->point_us, kClients) &&
                   EnoughForGating(out->batch_us, kClients));
    if ((now >= deadline && enough) || now >= hard_stop) break;
    SocialOp op = stream.Next();
    std::vector<std::string> texts;
    for (uint32_t p : op.persons) {
      texts.push_back(LookupText(op.template_index, handles[p]));
      out->texts.insert(texts.back());
    }
    ++out->attempted;
    if (!op.batch) {
      double wall = 0;
      Result<ExecutionResult> r = path.Execute(texts.front(), &wall);
      if (!r.ok()) {
        ++out->failed;
        out->errors.push_back(r.status().ToString());
        continue;
      }
      out->point_us.Add(MicrosBetween(start, Clock::now()) / 1e6, wall);
      out->per_template_us[op.template_index].Add(wall);
      ++out->reads;
      if (solo_ops++ % kCheckPointEvery == 0) {
        out->points.push_back({texts.front(), TableDigest(r->table)});
      }
    } else {
      double wall = 0;
      std::vector<Result<ExecutionResult>> rs = path.ExecuteBatch(texts, &wall);
      bool ok = true;
      for (const auto& r : rs) {
        if (!r.ok()) {
          ok = false;
          out->errors.push_back(r.status().ToString());
        }
      }
      if (!ok) {
        ++out->failed;
        continue;
      }
      out->batch_us.Add(MicrosBetween(start, Clock::now()) / 1e6, wall);
      out->reads += rs.size();
      if (batch_ops++ % kCheckBatchEvery == 0) {
        std::vector<Sample> kept;
        for (size_t i = 0; i < rs.size(); ++i) {
          kept.push_back({texts[i], TableDigest(rs[i]->table)});
        }
        out->batches.push_back(std::move(kept));
      }
    }
  }
  out->digest = stream.digest();
}

}  // namespace

Report RunSocialPoint(const RunConfig& config) {
  Report report;
  report.workload = config.workload;
  kaskade::datasets::SocialOptions social;
  social.num_vertices = kPersons;
  social.edges_per_vertex = kEdgesPerPerson;
  const PropertyGraph generated = kaskade::datasets::MakeSocialGraph(social);
  std::vector<std::string> handles;
  handles.reserve(generated.NumVertices());
  for (VertexId v = 0; v < generated.NumVertices(); ++v) {
    if (generated.IsVertexLive(v)) {
      handles.push_back(generated.VertexProperty(v, "handle").as_string());
    }
  }

  EngineOptions options;
  options.batch_workers = kBatchWorkers;
  // Set-up: hand a copy of the graph to a new engine and serve one lookup
  // per template, which builds the base CSR snapshot.
  std::unique_ptr<Engine> engine;
  std::vector<double> setups;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    PropertyGraph copy = generated;
    Clock::time_point t0 = Clock::now();
    engine = std::make_unique<Engine>(std::move(copy), options);
    bool ok = true;
    for (int t = 0; t < 3; ++t) {
      ok = ok && engine->Execute(LookupText(t, handles.front())).ok();
    }
    setups.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    if (!ok) {
      report.Fail("set-up lookups failed");
      return report;
    }
  }
  const double setup_s = Median(setups);
  {
    auto csr = engine->catalog().BaseSnapshot();
    report.Meta("dataset_generator_seed", static_cast<double>(social.seed));
    report.Meta("vertices", static_cast<double>(engine->base_graph().NumLiveVertices()));
    report.Meta("edges", static_cast<double>(engine->base_graph().NumLiveEdges()));
    report.Meta("csr_bytes", static_cast<double>(CsrBytes(*csr)));
    report.Meta("csr_segments", static_cast<double>(csr->num_segments()));
  }
  report.Meta("setup_repeats", static_cast<double>(kSetupRepeats));
  report.Meta("views_built", "none");
  report.Meta("client_threads", static_cast<double>(kClients));
  report.Meta("batch_workers", static_cast<double>(kBatchWorkers));
  report.Meta("plan_cache_capacity",
              static_cast<double>(options.planner.cache_capacity));
  report.Meta("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  kaskade::core::Planner mirror(MirrorPlannerOptions(options));
  std::vector<ClientResult> results(kClients);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (size_t c = 0; c < kClients; ++c) tracers.push_back(std::make_unique<Tracer>(c));
  const kaskade::core::EngineTelemetry before = engine->TelemetrySnapshot();
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, engine.get(), std::cref(options), &mirror,
                           config.trace ? tracers[c].get() : nullptr,
                           std::cref(handles), config.seed, c, start,
                           SecondsAfter(start, config.seconds),
                           SecondsAfter(start, 2 * config.seconds), &results[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  const double measured_s = MicrosBetween(start, Clock::now()) / 1e6;
  const kaskade::core::EngineTelemetry after = engine->TelemetrySnapshot();

  // Merge the clients.
  WindowedSamples point_us, batch_us;
  Samples per_template[3];
  std::unordered_set<std::string> texts;
  LayerTotals totals;
  uint64_t reads = 0;
  std::string digests;
  for (ClientResult& r : results) {
    point_us.Append(r.point_us);
    batch_us.Append(r.batch_us);
    for (int t = 0; t < 3; ++t) per_template[t].Append(r.per_template_us[t]);
    texts.insert(r.texts.begin(), r.texts.end());
    totals.Merge(r.totals);
    reads += r.reads;
    report.attempted += r.attempted;
    report.failed_ops += r.failed;
    for (const std::string& e : r.errors) report.Error(e);
    digests += (digests.empty() ? "" : " ") + std::to_string(r.digest);
  }

  // CSR answers == the legacy backtracker; batch members == solo Execute.
  kaskade::query::QueryExecutor legacy(&engine->base_graph());
  size_t checked = 0;
  for (const ClientResult& r : results) {
    for (const Sample& s : r.points) {
      auto expected = legacy.ExecuteText(s.text);
      ++checked;
      if (!expected.ok() || TableDigest(*expected) != s.digest) {
        ++report.mismatches;
        report.Error("CSR answer differs from the legacy executor: " + s.text);
      }
    }
    for (const std::vector<Sample>& batch : r.batches) {
      for (const Sample& s : batch) {
        auto solo = engine->Execute(s.text);
        ++checked;
        if (!solo.ok() || TableDigest(solo->table) != s.digest) {
          ++report.mismatches;
          report.Error("batch member differs from solo Execute: " + s.text);
        }
      }
    }
  }
  report.Meta("answers_checked", static_cast<double>(checked));
  report.Meta("distinct_texts", static_cast<double>(texts.size()));
  report.Meta("measured_s", measured_s);
  report.Meta("op_stream_digests", digests);

  const double read_qps = reads / measured_s;
  AddClassPercentiles(&report, "point", point_us.all(), kP99, 1, "us");
  AddClassPercentiles(&report, "batch", batch_us.all(), kP90, 1, "us");
  const char* names[3] = {"point_1hop", "point_2hop", "point_var1to2"};
  for (int t = 0; t < 3; ++t) {
    AddClassPercentiles(&report, names[t], per_template[t], kP90, 1, "us");
  }
  report.classes.push_back({"read_qps", read_qps, "1/s"});
  report.classes.push_back({"setup_s", setup_s, "s"});
  // primary = one anchored Execute, secondary = one ExecuteBatch of 8.
  SetEndToEnd(&report, setup_s, read_qps, point_us, batch_us);
  if (config.trace) {
    std::vector<const Tracer*> all;
    for (const auto& t : tracers) all.push_back(t.get());
    FinishTrace(&report, config, totals, TelemetryDelta::Between(before, after),
                *engine, all);
  }
  return report;
}

}  // namespace perfbench
