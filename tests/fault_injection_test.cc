// Fault-injection suite (see core/fault.h): every named site is failed
// on purpose and the degradation contract is proved against a fault-free
// oracle engine over the same graph — no crash, no stale or torn result,
// failed builds quarantine their view while queries transparently answer
// from the base graph, and the telemetry accounts for every event.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/fault.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "graph/delta.h"
#include "table_test_util.h"

namespace kaskade::core {
namespace {

using graph::PropertyGraph;
using testutil::CanonicalRows;

PropertyGraph FaultProv() {
  datasets::ProvOptions options;
  options.num_jobs = 60;
  options.num_files = 120;
  options.include_auxiliary = false;
  options.seed = 7;
  return datasets::MakeProvenanceGraph(options);
}

ViewDefinition JobConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

ViewDefinition FileConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "File";
  def.target_type = "File";
  return def;
}

/// Shared hook state: fail `site` while `armed`, count what happened.
struct FaultState {
  FaultSite site;
  std::atomic<bool> armed{true};
  std::atomic<size_t> fired{0};
  std::atomic<size_t> failed{0};
  /// When non-empty, only fire for this detail (e.g. one view's name).
  std::string only_detail;
};

FaultHooks FailingHooks(std::shared_ptr<FaultState> state) {
  FaultHooks hooks;
  hooks.hook = [state](FaultSite site, const std::string& detail) {
    if (site != state->site) return Status::OK();
    if (!state->only_detail.empty() && detail != state->only_detail) {
      return Status::OK();
    }
    state->fired.fetch_add(1);
    if (!state->armed.load()) return Status::OK();
    state->failed.fetch_add(1);
    return Status::Internal("injected fault at " +
                            std::string(FaultSiteName(site)) + " (" + detail +
                            ")");
  };
  return hooks;
}

// ---------------------------------------------------------------------------
// Snapshot build faults: degrade to the legacy backend, stay exact
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SnapshotBuildFaultFallsBackToLegacyBackend) {
  // Every snapshot production passes the fault site, whatever the
  // base graph's shard count.
  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto state = std::make_shared<FaultState>();
    state->site = FaultSite::kSnapshotBuild;

    EngineOptions options;
    options.fault_hooks = FailingHooks(state);
    options.shards = shards;
    Engine subject(FaultProv(), options);
    Engine oracle(FaultProv());

    const std::vector<std::string> texts = {
        datasets::AncestorsQueryText("Job", 3),
        datasets::DescendantsQueryText("Job", 2),
        datasets::AncestorsQueryText("File", 2),
    };
    for (const std::string& text : texts) {
      auto expected = oracle.Execute(text);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto got = subject.Execute(text);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(expected->table));
      // The legacy backend performs no CSR expansions — proof the query
      // really degraded rather than using a half-built snapshot.
      EXPECT_EQ(got->expansions, 0u);
    }
    // Telemetry accounts for every failed production, and for nothing
    // else.
    EngineTelemetry telemetry = subject.TelemetrySnapshot();
    EXPECT_GT(telemetry.snapshot_build_failures, 0u);
    EXPECT_EQ(telemetry.snapshot_build_failures, state->failed.load());
    EXPECT_EQ(subject.catalog().snapshot_builds(), 0u);
    EXPECT_EQ(telemetry.quarantine_events, 0u);

    // Disarm: CSR production recovers without restarting the engine.
    state->armed.store(false);
    auto recovered = subject.Execute(texts[0]);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_GT(recovered->expansions, 0u);
    EXPECT_EQ(subject.catalog().snapshot_builds(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Maintainer faults: quarantine one view, keep the batch and the rest
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, MaintainerApplyFaultQuarantinesOnlyThatView) {
  auto state = std::make_shared<FaultState>();
  state->site = FaultSite::kMaintainerApply;
  state->only_detail = JobConnector().Name();

  EngineOptions options;
  options.fault_hooks = FailingHooks(state);
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());
  ASSERT_TRUE(subject.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(subject.AddMaterializedView(FileConnector()).ok());

  // One inserted edge that both engines apply identically (same seed,
  // same vertex ids).
  const graph::PropertyGraph& base = subject.base_graph();
  std::vector<graph::VertexId> jobs =
      base.VerticesOfType(base.schema().FindVertexType("Job"));
  std::vector<graph::VertexId> files =
      base.VerticesOfType(base.schema().FindVertexType("File"));
  ASSERT_FALSE(jobs.empty());
  ASSERT_FALSE(files.empty());
  graph::GraphDelta delta;
  delta.AddEdge(jobs.front(), files.back(), "WRITES_TO");
  graph::GraphDelta oracle_delta;
  oracle_delta.AddEdge(jobs.front(), files.back(), "WRITES_TO");

  auto report = subject.ApplyDelta(std::move(delta));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(oracle.ApplyDelta(std::move(oracle_delta)).ok());

  // The failing maintainer quarantined its view; the other view and the
  // base graph absorbed the delta normally.
  EXPECT_EQ(subject.catalog().num_quarantined(), 1u);
  const CatalogEntry* bad = subject.catalog().Find(JobConnector().Name());
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->state, ViewState::kQuarantined);
  EXPECT_FALSE(bad->health.ok());
  const CatalogEntry* good = subject.catalog().Find(FileConnector().Name());
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->state, ViewState::kReady);

  // Post-delta answers come from the base graph (never the stale view)
  // and match the fault-free oracle exactly.
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto expected = oracle.Execute(text);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = subject.Execute(text);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got->used_view);
  EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(expected->table));

  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_EQ(telemetry.views_quarantined, 1u);
  EXPECT_EQ(telemetry.quarantine_events, 1u);
  EXPECT_EQ(telemetry.quarantine_events, state->failed.load());
}

// ---------------------------------------------------------------------------
// Background-build faults (materialize / publish): quarantine + reclaim
// ---------------------------------------------------------------------------

void RunBuildFaultScenario(FaultSite site) {
  auto state = std::make_shared<FaultState>();
  state->site = site;

  EngineOptions options;
  options.fault_hooks = FailingHooks(state);
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());

  AdvicePlan plan;
  plan.create.push_back(JobConnector());
  auto report = subject.ApplyAdvice(plan);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->builds_scheduled, 1u);
  subject.WaitForBuilds();

  // The build failed and was recorded; the entry is quarantined, not
  // erased — the name stays reserved with the injected failure in its
  // health field.
  Status build_error = subject.TakeBuildError();
  ASSERT_FALSE(build_error.ok());
  EXPECT_NE(build_error.message().find("injected fault"), std::string::npos)
      << build_error;
  EXPECT_EQ(subject.catalog().num_quarantined(), 1u);
  EXPECT_EQ(subject.catalog().num_ready(), 0u);

  // Queries transparently answer from the base graph.
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto expected = oracle.Execute(text);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto during = subject.Execute(text);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_FALSE(during->used_view);
  EXPECT_EQ(CanonicalRows(during->table), CanonicalRows(expected->table));

  // Disarm the fault and rebuild: the quarantined entry is reclaimed in
  // place and the view serves again — identically to a never-faulted
  // engine carrying the same view.
  state->armed.store(false);
  ASSERT_TRUE(subject.AddMaterializedView(JobConnector()).ok());
  EXPECT_EQ(subject.catalog().num_quarantined(), 0u);
  EXPECT_EQ(subject.catalog().num_ready(), 1u);
  Engine healthy(FaultProv());
  ASSERT_TRUE(healthy.AddMaterializedView(JobConnector()).ok());
  auto healthy_result = healthy.Execute(text);
  ASSERT_TRUE(healthy_result.ok()) << healthy_result.status();
  auto after = subject.Execute(text);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(CanonicalRows(after->table), CanonicalRows(healthy_result->table));

  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_EQ(telemetry.quarantine_events, 1u);
  EXPECT_EQ(telemetry.views_quarantined, 0u);
}

TEST(FaultInjectionTest, MaterializeFaultQuarantinesBuildThenReclaims) {
  RunBuildFaultScenario(FaultSite::kMaterialize);
}

TEST(FaultInjectionTest, PublishFaultQuarantinesBuildThenReclaims) {
  RunBuildFaultScenario(FaultSite::kPublish);
}

// ---------------------------------------------------------------------------
// Batch-worker faults: the caller drains the batch, every member answers
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, BatchWorkerFaultNeverLosesABatchMember) {
  auto state = std::make_shared<FaultState>();
  state->site = FaultSite::kBatchWorker;

  EngineOptions options;
  options.fault_hooks = FailingHooks(state);
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());

  // Twelve distinct-shape queries: enough independent tasks to start
  // the persistent pool, whose workers all fail their claim.
  std::vector<std::string> texts;
  for (int hops = 1; hops <= 6; ++hops) {
    texts.push_back(datasets::AncestorsQueryText("Job", hops));
    texts.push_back(datasets::DescendantsQueryText("Job", hops));
  }
  std::vector<std::multiset<std::vector<int64_t>>> expected;
  for (const std::string& text : texts) {
    auto result = oracle.Execute(text);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(CanonicalRows(result->table));
  }

  // On one core the calling thread can drain a whole batch before any
  // pool worker wakes, so repeat until a worker provably faulted; every
  // round must be complete and exact regardless.
  for (int round = 0;
       round < 50 && subject.TelemetrySnapshot().batch_worker_faults == 0;
       ++round) {
    auto results = subject.ExecuteBatch(texts);
    ASSERT_EQ(results.size(), texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status();
      EXPECT_EQ(CanonicalRows(results[i]->table), expected[i]);
    }
  }
  // The workers really did abandon rounds — and every batch still
  // completed because the calling thread drained it.
  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_GT(telemetry.batch_worker_faults, 0u);
  EXPECT_GE(state->failed.load(), telemetry.batch_worker_faults);
}

// ---------------------------------------------------------------------------
// Self-healing: opt-in quarantine repair
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SelfHealRepairsQuarantinedViewAfterOneShotFault) {
  auto state = std::make_shared<FaultState>();
  state->site = FaultSite::kMaintainerApply;
  state->only_detail = JobConnector().Name();

  EngineOptions options;
  options.fault_hooks = FailingHooks(state);
  options.self_heal.enabled = true;
  options.self_heal.initial_backoff = std::chrono::milliseconds(1);
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());
  ASSERT_TRUE(subject.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(oracle.AddMaterializedView(JobConnector()).ok());

  const graph::PropertyGraph& base = subject.base_graph();
  std::vector<graph::VertexId> jobs =
      base.VerticesOfType(base.schema().FindVertexType("Job"));
  std::vector<graph::VertexId> files =
      base.VerticesOfType(base.schema().FindVertexType("File"));
  ASSERT_FALSE(jobs.empty());
  ASSERT_FALSE(files.empty());

  // One-shot fault: the maintainer fails exactly once, quarantining the
  // view; every later rebuild attempt is clean.
  graph::GraphDelta delta;
  delta.AddEdge(jobs.front(), files.back(), "WRITES_TO");
  graph::GraphDelta oracle_delta;
  oracle_delta.AddEdge(jobs.front(), files.back(), "WRITES_TO");
  ASSERT_TRUE(subject.ApplyDelta(std::move(delta)).ok());
  ASSERT_TRUE(oracle.ApplyDelta(std::move(oracle_delta)).ok());
  state->armed.store(false);
  ASSERT_EQ(state->failed.load(), 1u);

  // The repair worker notices the quarantine and rebuilds the view
  // without any manual intervention.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (subject.TelemetrySnapshot().quarantine_repairs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_GE(telemetry.quarantine_repairs, 1u);
  EXPECT_EQ(telemetry.views_quarantined, 0u);
  const CatalogEntry* healed = subject.catalog().Find(JobConnector().Name());
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(healed->state, ViewState::kReady);
  EXPECT_TRUE(healed->health.ok());

  // The healed view answers exactly like the fault-free oracle's.
  const std::string text = datasets::AncestorsQueryText("Job", 2);
  auto expected = oracle.Execute(text);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = subject.Execute(text);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(expected->table));

  // A second fault round heals again: repair is a loop, not a one-off.
  state->armed.store(true);
  graph::GraphDelta second;
  second.AddEdge(jobs.back(), files.front(), "WRITES_TO");
  graph::GraphDelta oracle_second;
  oracle_second.AddEdge(jobs.back(), files.front(), "WRITES_TO");
  ASSERT_TRUE(subject.ApplyDelta(std::move(second)).ok());
  ASSERT_TRUE(oracle.ApplyDelta(std::move(oracle_second)).ok());
  state->armed.store(false);
  while (subject.TelemetrySnapshot().quarantine_repairs < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(subject.TelemetrySnapshot().quarantine_repairs, 2u);
  auto after = subject.Execute(text);
  auto after_expected = oracle.Execute(text);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(after_expected.ok()) << after_expected.status();
  EXPECT_EQ(CanonicalRows(after->table), CanonicalRows(after_expected->table));
}

TEST(FaultInjectionTest, SelfHealRepairRunsWithoutBlockingReadersOrWriters) {
  // A one-shot maintainer fault quarantines the view; the repair's build
  // then parks in the materialize hook until the test releases it.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
  };
  auto latch = std::make_shared<Latch>();
  auto maintainer_fault = std::make_shared<std::atomic<bool>>(true);
  const std::string view_name = JobConnector().Name();

  EngineOptions options;
  options.self_heal.enabled = true;
  options.fault_hooks.hook = [latch, maintainer_fault, view_name](
                                 FaultSite site, const std::string& detail) {
    if (detail != view_name) return Status::OK();
    if (site == FaultSite::kMaintainerApply &&
        maintainer_fault->exchange(false)) {
      return Status::Internal("injected one-shot maintainer fault");
    }
    if (site == FaultSite::kMaterialize) {
      std::unique_lock<std::mutex> lock(latch->mu);
      latch->entered = true;
      latch->cv.notify_all();
      latch->cv.wait(lock, [&] { return latch->released; });
    }
    return Status::OK();
  };
  auto release = [latch] {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->released = true;
    latch->cv.notify_all();
  };
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());
  ASSERT_TRUE(subject.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(oracle.AddMaterializedView(JobConnector()).ok());

  const graph::PropertyGraph& base = oracle.base_graph();
  std::vector<graph::VertexId> jobs =
      base.VerticesOfType(base.schema().FindVertexType("Job"));
  std::vector<graph::VertexId> files =
      base.VerticesOfType(base.schema().FindVertexType("File"));
  ASSERT_FALSE(jobs.empty());
  ASSERT_FALSE(files.empty());
  auto first_delta = [&] {
    graph::GraphDelta delta;
    delta.AddEdge(jobs.front(), files.back(), "WRITES_TO");
    return delta;
  };
  auto second_delta = [&] {
    graph::GraphDelta delta;
    delta.AddEdge(files.front(), jobs.back(), "IS_READ_BY");
    return delta;
  };
  ASSERT_TRUE(subject.ApplyDelta(first_delta()).ok());
  ASSERT_TRUE(oracle.ApplyDelta(first_delta()).ok());

  bool entered;
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    entered = latch->cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return latch->entered; });
  }
  if (!entered) {
    release();
    FAIL() << "the repair never reached the materialize site";
  }

  // With the repair parked mid-build, a reader answers exactly from the
  // base and a writer commits; neither waits for the repair.
  const std::string text = datasets::AncestorsQueryText("Job", 2);
  auto expected_during = oracle.Execute(text);
  ASSERT_TRUE(expected_during.ok()) << expected_during.status();
  auto during = std::async(std::launch::async, [&] {
    auto read = subject.Execute(text);
    Status wrote = subject.ApplyDelta(second_delta()).status();
    return std::make_pair(std::move(read), wrote);
  });
  const bool finished = during.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release();
  ASSERT_TRUE(finished) << "a reader or writer waited for the repair";
  auto [read, wrote] = during.get();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->used_view);
  EXPECT_EQ(CanonicalRows(read->table), CanonicalRows(expected_during->table));
  ASSERT_TRUE(wrote.ok()) << wrote;
  ASSERT_TRUE(oracle.ApplyDelta(second_delta()).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (subject.TelemetrySnapshot().quarantine_repairs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_EQ(telemetry.quarantine_repairs, 1u);
  EXPECT_EQ(telemetry.repair_failures, 0u);
  EXPECT_EQ(telemetry.views_quarantined, 0u);
  // The delta that landed mid-repair was replayed at publish.
  EXPECT_EQ(telemetry.builds_replayed, 1u);
  const CatalogEntry* healed = subject.catalog().Find(view_name);
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(healed->state, ViewState::kReady);
  auto expected = oracle.Execute(text);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = subject.Execute(text);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(expected->table));
}

TEST(FaultInjectionTest, SelfHealGivesUpAfterMaxAttempts) {
  // Every materialization of the view fails: the advice build, then
  // each repair.
  auto state = std::make_shared<FaultState>();
  state->site = FaultSite::kMaterialize;
  state->only_detail = JobConnector().Name();

  EngineOptions options;
  options.fault_hooks = FailingHooks(state);
  options.self_heal.enabled = true;
  options.self_heal.initial_backoff = std::chrono::milliseconds(1);
  options.self_heal.max_backoff = std::chrono::milliseconds(4);
  options.self_heal.max_attempts = 3;
  Engine subject(FaultProv(), options);
  Engine oracle(FaultProv());

  AdvicePlan plan;
  plan.create.push_back(JobConnector());
  ASSERT_TRUE(subject.ApplyAdvice(plan).ok());
  subject.WaitForBuilds();
  EXPECT_FALSE(subject.TakeBuildError().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (subject.TelemetrySnapshot().repair_failures < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Well past the longest backoff: no fourth attempt follows.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EngineTelemetry telemetry = subject.TelemetrySnapshot();
  EXPECT_EQ(telemetry.repair_failures, 3u);
  EXPECT_EQ(telemetry.quarantine_repairs, 0u);
  EXPECT_EQ(telemetry.views_quarantined, 1u);
  EXPECT_EQ(state->failed.load(), 4u);  // the advice build + 3 repairs
  const CatalogEntry* entry = subject.catalog().Find(JobConnector().Name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, ViewState::kQuarantined);
  EXPECT_FALSE(entry->health.ok());

  // Queries answer exactly from the base graph.
  for (const std::string& text : {datasets::AncestorsQueryText("Job", 2),
                                  datasets::DescendantsQueryText("Job", 3)}) {
    auto expected = oracle.Execute(text);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto got = subject.Execute(text);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->used_view);
    EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(expected->table));
  }

  // An operator retires the broken view.
  ASSERT_TRUE(subject.RemoveView(JobConnector().Name()).ok());
  EXPECT_EQ(subject.catalog().Find(JobConnector().Name()), nullptr);
  EXPECT_EQ(subject.TelemetrySnapshot().views_quarantined, 0u);
}

}  // namespace
}  // namespace kaskade::core
