// Durability suite: WAL framing and torn-tail truncation, checkpoint
// atomicity and fallback, checksummed graph serialization (including a
// corruption fuzz), and the crash-recovery differential — at every one
// of dozens of randomized crash points, the recovered engine must equal
// an oracle that applied exactly the durable prefix of the mutation
// stream, and must never serve a wrong answer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/fault.h"
#include "core/view_definition.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "graph/serialization.h"
#include "table_test_util.h"

namespace kaskade {
namespace {

namespace fs = std::filesystem;
using core::Engine;
using core::EngineOptions;
using core::RecoveryReport;
using core::ViewDefinition;
using core::ViewKind;
using durability::FsyncPolicy;
using durability::WriteAheadLog;
using graph::GraphDelta;
using graph::PropertyGraph;
using testutil::CanonicalRows;

/// Self-cleaning unique temp directory.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("kaskade_durability_" + tag + "_" +
             std::to_string(::getpid()) + "_" + std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path path_;
};

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to / entry.path().filename(),
                  fs::copy_options::overwrite_existing);
  }
}

void FlipByteAt(const fs::path& file, uint64_t offset) {
  std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.is_open()) << file;
  io.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  io.read(&byte, 1);
  ASSERT_TRUE(io.good());
  byte = static_cast<char>(byte ^ 0x40);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(&byte, 1);
  ASSERT_TRUE(io.good());
}

std::vector<fs::path> WalFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

PropertyGraph SmallProv() {
  datasets::ProvOptions options;
  options.num_jobs = 12;
  options.num_files = 24;
  options.include_auxiliary = false;
  options.seed = 3;
  return datasets::MakeProvenanceGraph(options);
}

std::string Canonical(const PropertyGraph& g) {
  graph::SaveOptions save;
  save.preserve_tombstones = true;
  return graph::GraphToString(g, save);
}

/// A valid randomized mutation stream over an evolving graph: vertex
/// inserts, edge inserts (between existing and freshly-inserted
/// vertices), and live-edge removals, each delta validated before it
/// enters the stream.
struct MutationStream {
  std::string base_text;              ///< Tombstone-preserving base image.
  std::vector<std::string> deltas;    ///< Serialized, in application order.
  PropertyGraph final_graph{graph::GraphSchema{}};
};

MutationStream MakeStream(const PropertyGraph& base, size_t count,
                          uint64_t seed) {
  MutationStream stream;
  stream.base_text = Canonical(base);
  PropertyGraph oracle = base;
  std::mt19937_64 rng(seed);

  auto pick_live_vertex = [&](const std::string& type) {
    std::vector<graph::VertexId> live;
    for (graph::VertexId v = 0; v < oracle.NumVertices(); ++v) {
      if (oracle.IsVertexLive(v) && oracle.VertexTypeName(v) == type) {
        live.push_back(v);
      }
    }
    return live[rng() % live.size()];
  };
  auto pick_live_edge = [&]() -> int64_t {
    std::vector<graph::EdgeId> live;
    for (graph::EdgeId e = 0; e < oracle.NumEdges(); ++e) {
      if (oracle.IsEdgeLive(e)) live.push_back(e);
    }
    if (live.empty()) return -1;
    return static_cast<int64_t>(live[rng() % live.size()]);
  };

  for (size_t i = 0; i < count; ++i) {
    GraphDelta delta;
    switch (rng() % 4) {
      case 0: {  // New job writing an existing file.
        graph::PropertyMap props;
        props.Set("pipelineName", graph::PropertyValue("p " + std::to_string(i)));
        delta.AddVertex("Job", std::move(props));
        delta.AddEdge(oracle.NumVertices(), pick_live_vertex("File"),
                      "WRITES_TO");
        break;
      }
      case 1: {  // New job + new file, edge between the two inserts.
        delta.AddVertex("Job");
        delta.AddVertex("File");
        delta.AddEdge(oracle.NumVertices(), oracle.NumVertices() + 1,
                      "WRITES_TO");
        break;
      }
      case 2: {  // Edge between existing vertices.
        delta.AddEdge(pick_live_vertex("File"), pick_live_vertex("Job"),
                      "IS_READ_BY");
        break;
      }
      default: {  // Remove a live edge (plus an insert so it's never empty).
        int64_t victim = pick_live_edge();
        if (victim >= 0) delta.RemoveEdge(static_cast<graph::EdgeId>(victim));
        delta.AddVertex("File");
        break;
      }
    }
    EXPECT_TRUE(delta.Validate(oracle).ok());
    stream.deltas.push_back(graph::SerializeDelta(delta));
    auto applied = graph::ApplyDeltaToGraph(&oracle, delta);
    EXPECT_TRUE(applied.ok()) << applied.status();
  }
  stream.final_graph = std::move(oracle);
  return stream;
}

/// The oracle: the state after applying exactly the first `n` deltas.
PropertyGraph OracleAfter(const MutationStream& stream, size_t n) {
  auto base = graph::GraphFromString(stream.base_text);
  EXPECT_TRUE(base.ok()) << base.status();
  PropertyGraph g = std::move(base).value();
  for (size_t i = 0; i < n; ++i) {
    auto delta = graph::ParseDelta(stream.deltas[i]);
    EXPECT_TRUE(delta.ok()) << delta.status();
    auto applied = graph::ApplyDeltaToGraph(&g, delta.value());
    EXPECT_TRUE(applied.ok()) << applied.status();
  }
  return g;
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

// ---------------------------------------------------------------------------
// WAL unit tests
// ---------------------------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("wal_roundtrip");
  durability::WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryWrite;
  std::vector<std::string> payloads = {"alpha", "", "gamma with spaces",
                                       std::string(3000, 'x')};
  {
    auto wal = WriteAheadLog::Open(dir.str(), 1, options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const std::string& payload : payloads) {
      auto token = (*wal)->Append(payload);
      ASSERT_TRUE(token.ok()) << token.status();
      ASSERT_TRUE((*wal)->WaitDurable(token.value()).ok());
    }
    EXPECT_EQ((*wal)->telemetry().appends, payloads.size());
    EXPECT_GE((*wal)->telemetry().fsyncs, payloads.size());
  }
  std::vector<std::pair<uint64_t, std::string>> seen;
  auto report = WriteAheadLog::Replay(
      dir.str(), 1, [&](uint64_t lsn, const std::string& payload) {
        seen.emplace_back(lsn, payload);
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->records, payloads.size());
  EXPECT_EQ(report->first_lsn, 1u);
  EXPECT_EQ(report->last_lsn, payloads.size());
  EXPECT_TRUE(report->data_loss_note.empty());
  ASSERT_EQ(seen.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, payloads[i]);
  }
}

TEST(WalTest, TornTailIsTruncatedAndReported) {
  TempDir dir("wal_torn");
  durability::WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryWrite;
  {
    auto wal = WriteAheadLog::Open(dir.str(), 1, options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 5; ++i) {
      auto token = (*wal)->Append("record " + std::to_string(i));
      ASSERT_TRUE(token.ok());
      ASSERT_TRUE((*wal)->WaitDurable(token.value()).ok());
    }
  }
  auto files = WalFiles(dir.path());
  ASSERT_EQ(files.size(), 1u);
  // Tear the file mid-way through the last record.
  uint64_t size = fs::file_size(files[0]);
  fs::resize_file(files[0], size - 3);

  size_t replayed = 0;
  auto report = WriteAheadLog::Replay(
      dir.str(), 1, [&](uint64_t, const std::string&) {
        ++replayed;
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->records, 4u);
  EXPECT_EQ(report->last_lsn, 4u);
  EXPECT_GT(report->truncated_bytes, 0u);
  EXPECT_FALSE(report->data_loss_note.empty());
  EXPECT_EQ(replayed, 4u);

  // The truncation is clean: a second replay sees a healthy log.
  auto again = WriteAheadLog::Replay(
      dir.str(), 1, [&](uint64_t, const std::string&) { return Status::OK(); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 4u);
  EXPECT_TRUE(again->data_loss_note.empty());
}

TEST(WalTest, SegmentRotationAndTruncateBelow) {
  TempDir dir("wal_rotate");
  durability::WalOptions options;
  options.fsync_policy = FsyncPolicy::kEveryWrite;
  options.segment_bytes = 64;  // Rotate on nearly every append.
  auto wal = WriteAheadLog::Open(dir.str(), 1, options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (int i = 0; i < 8; ++i) {
    auto token = (*wal)->Append(std::string(48, 'a' + i));
    ASSERT_TRUE(token.ok());
    ASSERT_TRUE((*wal)->WaitDurable(token.value()).ok());
  }
  EXPECT_GT(WalFiles(dir.path()).size(), 2u);

  // Everything below LSN 6 is checkpoint-covered: whole old segments go.
  ASSERT_TRUE((*wal)->TruncateBelow(6).ok());
  size_t replayed = 0;
  auto report = WriteAheadLog::Replay(
      dir.str(), 6, [&](uint64_t, const std::string&) {
        ++replayed;
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(replayed, 3u);  // LSNs 6, 7, 8.
  EXPECT_EQ(report->first_lsn, 6u);
  EXPECT_EQ(report->last_lsn, 8u);
  EXPECT_TRUE(report->data_loss_note.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint unit tests
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripPreservesGraphAndViews) {
  TempDir dir("ckpt_roundtrip");
  PropertyGraph g = SmallProv();
  std::vector<ViewDefinition> views = {JobConnector(), FileConnector()};
  ASSERT_TRUE(
      durability::WriteCheckpoint(dir.str(), g, views, 42, {}).ok());

  auto loaded = durability::LoadNewestCheckpoint(dir.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->lsn, 42u);
  EXPECT_EQ(Canonical(loaded->graph), Canonical(g));
  ASSERT_EQ(loaded->views.size(), 2u);
  EXPECT_EQ(loaded->views[0].Name(), views[0].Name());
  EXPECT_EQ(loaded->views[1].Name(), views[1].Name());
  EXPECT_TRUE(loaded->skipped_corrupt.empty());
}

TEST(CheckpointTest, CorruptNewestFallsBackToOlder) {
  TempDir dir("ckpt_fallback");
  PropertyGraph old_graph = SmallProv();
  ASSERT_TRUE(durability::WriteCheckpoint(dir.str(), old_graph, {}, 10, {})
                  .ok());
  PropertyGraph new_graph = SmallProv();
  GraphDelta delta;
  delta.AddVertex("Job");
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&new_graph, delta).ok());
  ASSERT_TRUE(durability::WriteCheckpoint(dir.str(), new_graph, {}, 20, {})
                  .ok());

  // Flip a byte in the middle of the newest checkpoint.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().filename().string().find("-0000000000000014") !=
        std::string::npos) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  FlipByteAt(newest, fs::file_size(newest) / 2);

  auto loaded = durability::LoadNewestCheckpoint(dir.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->lsn, 10u);
  EXPECT_EQ(Canonical(loaded->graph), Canonical(old_graph));
  ASSERT_EQ(loaded->skipped_corrupt.size(), 1u);

  // Corrupt the older one too: data loss, not a garbage graph.
  fs::path older = dir.path() / "checkpoint-000000000000000a.ckpt";
  ASSERT_TRUE(fs::exists(older));
  FlipByteAt(older, fs::file_size(older) / 3);
  auto none = durability::LoadNewestCheckpoint(dir.str());
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kDataLoss);

  // And an empty directory is "nothing here", not corruption.
  TempDir empty("ckpt_empty");
  auto missing = durability::LoadNewestCheckpoint(empty.str());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Checksummed graph serialization
// ---------------------------------------------------------------------------

TEST(SerializationTest, TombstonePreservingRoundTripKeepsIdSpace) {
  PropertyGraph g = SmallProv();
  GraphDelta delta;
  delta.RemoveEdge(0);
  delta.RemoveEdge(3);
  delta.AddVertex("Job");
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&g, delta).ok());

  std::string text = Canonical(g);
  auto loaded = graph::GraphFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  EXPECT_FALSE(loaded->IsEdgeLive(0));
  EXPECT_FALSE(loaded->IsEdgeLive(3));
  // Fixed point: serializing the reload is byte-identical.
  EXPECT_EQ(Canonical(loaded.value()), text);
}

TEST(SerializationTest, FuzzedCorruptionNeverYieldsWrongData) {
  PropertyGraph g = SmallProv();
  GraphDelta delta;
  delta.RemoveEdge(1);
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&g, delta).ok());
  const std::string text = Canonical(g);

  std::mt19937_64 rng(20260808);
  size_t rejected = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = text;
    if (trial % 2 == 0) {
      mutated.resize(rng() % text.size());  // Truncate.
    } else {
      size_t at = rng() % text.size();      // Flip one bit.
      mutated[at] = static_cast<char>(mutated[at] ^ (1u << (rng() % 8)));
    }
    if (mutated == text) continue;
    auto loaded = graph::GraphFromString(mutated);
    if (loaded.ok()) {
      // Only acceptable if the corruption was semantically invisible —
      // the reloaded graph must reproduce the original bytes exactly.
      EXPECT_EQ(Canonical(loaded.value()), text)
          << "corrupt input accepted with different contents (trial "
          << trial << ")";
    } else {
      ++rejected;
      EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                  loaded.status().code() == StatusCode::kInvalidArgument)
          << loaded.status();
    }
    if (trial % 2 == 0) {
      // Truncation always loses the end-of-file checksum: must fail.
      EXPECT_FALSE(loaded.ok()) << "truncated input accepted (trial "
                                << trial << ")";
    }
  }
  EXPECT_GT(rejected, 100u);
}

TEST(SerializationTest, ViewDefinitionRecordRoundTrip) {
  std::vector<ViewDefinition> defs = {JobConnector(), FileConnector()};
  ViewDefinition pred;
  pred.kind = ViewKind::kVertexRemovalSummarizer;
  pred.predicate_property = "CPU";
  pred.predicate_op = core::PredicateOp::kGe;
  pred.predicate_value = graph::PropertyValue(int64_t{8});
  pred.type_list = {"Job"};
  defs.push_back(pred);

  for (const ViewDefinition& def : defs) {
    std::string record = def.ToRecord();
    auto parsed = ViewDefinition::FromRecord(record);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << record;
    EXPECT_EQ(parsed->ToRecord(), record);
    EXPECT_EQ(parsed->Name(), def.Name());
  }
  EXPECT_FALSE(ViewDefinition::FromRecord("kind=nonsense").ok());
  EXPECT_FALSE(ViewDefinition::FromRecord("k=2").ok());
}

// ---------------------------------------------------------------------------
// Engine recovery
// ---------------------------------------------------------------------------

TEST(EngineDurabilityTest, CleanShutdownRecoversGraphAndViews) {
  TempDir dir("engine_clean");
  MutationStream stream = MakeStream(SmallProv(), 10, 11);

  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 0;
  {
    Engine engine(SmallProv(), options);
    ASSERT_TRUE(engine.durability_error().ok()) << engine.durability_error();
    ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
    ASSERT_TRUE(engine.AddMaterializedView(FileConnector()).ok());
    for (const std::string& serialized : stream.deltas) {
      auto delta = graph::ParseDelta(serialized);
      ASSERT_TRUE(delta.ok());
      auto report = engine.ApplyDelta(std::move(delta).value());
      ASSERT_TRUE(report.ok()) << report.status();
    }
  }

  RecoveryReport recovery;
  auto reopened = Engine::Open(dir.str(), options, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovery.records_replayed, stream.deltas.size());
  EXPECT_EQ(recovery.last_lsn, stream.deltas.size());
  EXPECT_EQ(recovery.views_rematerialized, 2u);
  EXPECT_TRUE(recovery.notes.empty());
  EXPECT_EQ(Canonical((*reopened)->base_graph()), Canonical(stream.final_graph));

  // Views answer identically to a from-scratch engine over the oracle.
  Engine oracle(OracleAfter(stream, stream.deltas.size()));
  ASSERT_TRUE(oracle.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(oracle.AddMaterializedView(FileConnector()).ok());
  for (const std::string& text : {datasets::AncestorsQueryText("Job", 2),
                                  datasets::AncestorsQueryText("File", 2)}) {
    auto got = (*reopened)->Execute(text);
    auto want = oracle.Execute(text);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(CanonicalRows(got->table), CanonicalRows(want->table));
  }

  // The reopened engine keeps appending where the log left off.
  GraphDelta more;
  more.AddVertex("Job");
  ASSERT_TRUE((*reopened)->ApplyDelta(std::move(more)).ok());
}

TEST(EngineDurabilityTest, CrashMatrixRecoversExactlyTheDurablePrefix) {
  TempDir dir("engine_crash");
  const size_t kMutations = 24;
  MutationStream stream = MakeStream(SmallProv(), kMutations, 77);

  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 0;  // Checkpoint manually below.
  options.durability.wal_segment_bytes = 512;   // Force segment rotation.
  uint64_t checkpoint_lsn = 0;
  {
    Engine engine(SmallProv(), options);
    ASSERT_TRUE(engine.durability_error().ok()) << engine.durability_error();
    ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
    for (size_t i = 0; i < stream.deltas.size(); ++i) {
      auto delta = graph::ParseDelta(stream.deltas[i]);
      ASSERT_TRUE(delta.ok());
      ASSERT_TRUE(engine.ApplyDelta(std::move(delta).value()).ok());
      if (i + 1 == kMutations / 3) {
        auto lsn = engine.Checkpoint();
        ASSERT_TRUE(lsn.ok()) << lsn.status();
        checkpoint_lsn = lsn.value();
        EXPECT_EQ(checkpoint_lsn, i + 1);
      }
    }
    EXPECT_EQ(engine.checkpoints_written(), 1u);
  }

  const std::string ancestors = datasets::AncestorsQueryText("Job", 2);
  std::mt19937_64 rng(99);
  size_t corrupt_recoveries = 0;
  const int kCrashPoints = 60;
  for (int crash = 0; crash < kCrashPoints; ++crash) {
    TempDir copy("engine_crash_pt");
    CopyDir(dir.path(), copy.path());
    auto files = WalFiles(copy.path());
    ASSERT_FALSE(files.empty());

    // Crash simulation: pick a WAL file and either tear it at a random
    // offset or flip a random byte. (Replay drops everything after the
    // first invalid record, later segments included.)
    const fs::path victim = files[rng() % files.size()];
    const uint64_t size = fs::file_size(victim);
    const bool flip = (crash % 2 == 1) && size > 0;
    if (flip) {
      FlipByteAt(victim, rng() % size);
    } else {
      fs::resize_file(victim, rng() % (size + 1));
    }

    RecoveryReport recovery;
    auto engine = Engine::Open(copy.str(), options, &recovery);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const uint64_t n = recovery.last_lsn;  // LSN i <=> mutation i.
    ASSERT_LE(n, kMutations);
    ASSERT_GE(n, checkpoint_lsn);
    if (!recovery.notes.empty()) ++corrupt_recoveries;

    // Base graph: byte-equal to the oracle that applied exactly the
    // durable prefix.
    PropertyGraph oracle_graph =
        OracleAfter(stream, static_cast<size_t>(n));
    ASSERT_EQ(Canonical((*engine)->base_graph()), Canonical(oracle_graph))
        << "crash point " << crash << " (n=" << n << ", flip=" << flip << ")";

    // Views: identical answers to a from-scratch materialization.
    Engine oracle(std::move(oracle_graph));
    ASSERT_TRUE(oracle.AddMaterializedView(JobConnector()).ok());
    auto got = (*engine)->Execute(ancestors);
    auto want = oracle.Execute(ancestors);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_EQ(CanonicalRows(got->table), CanonicalRows(want->table))
        << "crash point " << crash;
  }
  // The matrix exercised real corruption, not just no-op truncations.
  EXPECT_GT(corrupt_recoveries, kCrashPoints / 4);
}

TEST(EngineDurabilityTest, GapBetweenCheckpointAndLogIsDataLossNotGarbage) {
  TempDir dir("engine_gap");
  MutationStream stream = MakeStream(SmallProv(), 12, 5);

  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 0;
  options.durability.wal_segment_bytes = 256;  // Rotate constantly.
  {
    Engine engine(SmallProv(), options);
    ASSERT_TRUE(engine.durability_error().ok());
    for (size_t i = 0; i < stream.deltas.size(); ++i) {
      auto delta = graph::ParseDelta(stream.deltas[i]);
      ASSERT_TRUE(delta.ok());
      ASSERT_TRUE(engine.ApplyDelta(std::move(delta).value()).ok());
      if (i == 7) {
        auto lsn = engine.Checkpoint();  // Truncates segments below lsn 8.
        ASSERT_TRUE(lsn.ok()) << lsn.status();
      }
    }
  }
  // Corrupt the newest checkpoint. Recovery falls back to the initial
  // checkpoint (lsn 0), but the records connecting it to the surviving
  // log were truncated away — that gap must surface as data loss, never
  // as a silently wrong graph.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name != "checkpoint-0000000000000000.ckpt") {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  FlipByteAt(newest, fs::file_size(newest) / 2);

  auto engine = Engine::Open(dir.str(), options, nullptr);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kDataLoss);
}

TEST(EngineDurabilityTest, EveryWriteNeverLosesAcknowledgedMutations) {
  TempDir dir("engine_everywrite");
  MutationStream stream = MakeStream(SmallProv(), 9, 21);

  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 0;

  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.durability_error().ok());
  for (size_t i = 0; i < stream.deltas.size(); ++i) {
    auto delta = graph::ParseDelta(stream.deltas[i]);
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(engine.ApplyDelta(std::move(delta).value()).ok());
    // The acknowledgement IS the durability claim.
    ASSERT_EQ(engine.wal()->durable_offset(), engine.wal()->end_offset());

    // Simulated crash right now: everything acknowledged must survive.
    TempDir copy("engine_everywrite_pt");
    CopyDir(dir.path(), copy.path());
    auto files = WalFiles(copy.path());
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], engine.wal()->durable_offset());
    RecoveryReport recovery;
    auto reopened = Engine::Open(copy.str(), options, &recovery);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ASSERT_EQ(recovery.last_lsn, i + 1);
    ASSERT_EQ(Canonical((*reopened)->base_graph()),
              Canonical(OracleAfter(stream, i + 1)));
  }
  core::EngineTelemetry telemetry = engine.TelemetrySnapshot();
  EXPECT_EQ(telemetry.wal_appends, stream.deltas.size());
  EXPECT_GE(telemetry.wal_fsyncs, stream.deltas.size());
  EXPECT_GT(telemetry.wal_bytes, 0u);
}

TEST(EngineDurabilityTest, GroupCommitLosesAtMostTheUnflushedBatch) {
  TempDir dir("engine_batch");

  // A hook that can hold the group-commit flusher at the fsync site,
  // pinning the durable position while acknowledgements queue up.
  struct FlushGate {
    std::mutex mu;
    std::condition_variable cv;
    bool block = false;
    void Hold(bool value) {
      {
        std::lock_guard<std::mutex> lock(mu);
        block = value;
      }
      cv.notify_all();
    }
  };
  auto gate = std::make_shared<FlushGate>();

  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kBatch;
  options.durability.flush_interval = std::chrono::milliseconds(1);
  options.durability.checkpoint_wal_bytes = 0;
  options.fault_hooks.hook = [gate](core::FaultSite site,
                                    const std::string&) {
    if (site == core::FaultSite::kWalFsync) {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&] { return !gate->block; });
    }
    return Status::OK();
  };

  {
    Engine engine(SmallProv(), options);
    ASSERT_TRUE(engine.durability_error().ok()) << engine.durability_error();

    // Three mutations committed the normal way: acknowledged == flushed.
    for (int i = 0; i < 3; ++i) {
      GraphDelta delta;
      delta.AddVertex("Job");
      ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
    }
    const uint64_t durable_before = engine.wal()->durable_offset();
    ASSERT_EQ(durable_before, engine.wal()->end_offset());

    // Gate closed: the next batch appends but can never flush.
    gate->Hold(true);
    std::atomic<size_t> acknowledged{0};
    std::vector<std::thread> writers;
    const size_t kBatchWriters = 4;
    for (size_t w = 0; w < kBatchWriters; ++w) {
      writers.emplace_back([&] {
        GraphDelta delta;
        delta.AddVertex("File");
        Status status = engine.ApplyDelta(std::move(delta)).status();
        EXPECT_TRUE(status.ok()) << status;
        acknowledged.fetch_add(1);
      });
    }
    // Wait until every writer has appended (applied in memory, blocked
    // awaiting the flush)...
    while (engine.TelemetrySnapshot().wal_appends < 3 + kBatchWriters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // ...and prove no commit is observable before its batch is flushed:
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(acknowledged.load(), 0u);
    EXPECT_EQ(engine.wal()->durable_offset(), durable_before);
    EXPECT_GT(engine.wal()->end_offset(), durable_before);

    // Crash here: the copy holds only the durable prefix. Recovery gets
    // the three committed mutations; the whole unflushed batch — and
    // nothing else — is lost.
    TempDir crash("engine_batch_crash");
    CopyDir(dir.path(), crash.path());
    auto files = WalFiles(crash.path());
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], durable_before);
    RecoveryReport recovery;
    EngineOptions reopen = options;
    reopen.fault_hooks = {};
    auto recovered = Engine::Open(crash.str(), reopen, &recovery);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovery.last_lsn, 3u);

    // Open the gate: the batch flushes, every writer completes.
    gate->Hold(false);
    for (std::thread& writer : writers) writer.join();
    EXPECT_EQ(acknowledged.load(), kBatchWriters);
    EXPECT_GE(engine.wal()->durable_offset(), engine.wal()->end_offset());
    EXPECT_GT(engine.TelemetrySnapshot().group_commit_batches, 0u);
  }

  // After the clean shutdown nothing is lost at all.
  RecoveryReport recovery;
  EngineOptions reopen = options;
  reopen.fault_hooks = {};
  auto final_engine = Engine::Open(dir.str(), reopen, &recovery);
  ASSERT_TRUE(final_engine.ok()) << final_engine.status();
  EXPECT_EQ(recovery.last_lsn, 7u);
}

TEST(EngineDurabilityTest, BackgroundCheckpointerTriggersOnWalGrowth) {
  TempDir dir("engine_bg_ckpt");
  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 1;  // Every mutation trips it.

  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.durability_error().ok());
  for (int i = 0; i < 4; ++i) {
    GraphDelta delta;
    delta.AddVertex("Job");
    ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.checkpoints_written() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(engine.checkpoints_written(), 0u);
}

size_t ThreadCount() {
  size_t threads = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(EngineDurabilityTest, EngineStartsNoThreadUntilWorkArrives) {
  TempDir dir("engine_threads");
  EngineOptions options;
  options.durability.dir = dir.str();
  // No group-commit flusher: the log syncs on the writer's thread.
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 1;  // Every mutation trips it.
  options.self_heal.enabled = true;
  options.batch_workers = 3;

  const size_t before = ThreadCount();
  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.durability_error().ok());
  EXPECT_LE(ThreadCount(), before);
  EXPECT_EQ(engine.batch_pool_size(), 0u);

  // A checkpoint trigger starts the pool's one background thread, and
  // the checkpoint runs on it.
  GraphDelta delta;
  delta.AddVertex("Job");
  ASSERT_TRUE(engine.ApplyDelta(std::move(delta)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.checkpoints_written() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(engine.checkpoints_written(), 0u);
  EXPECT_EQ(engine.batch_pool_size(), 1u);
  EXPECT_LE(ThreadCount(), before + engine.batch_pool_size());
}

TEST(EngineDurabilityTest, WalAppendFaultSurfacesAsMutationError) {
  TempDir dir("engine_append_fault");
  std::atomic<bool> armed{false};
  EngineOptions options;
  options.durability.dir = dir.str();
  options.durability.fsync_policy = FsyncPolicy::kEveryWrite;
  options.durability.checkpoint_wal_bytes = 0;
  options.fault_hooks.hook = [&armed](core::FaultSite site,
                                      const std::string&) {
    if (site == core::FaultSite::kWalAppend && armed.load()) {
      return Status::Internal("injected append fault");
    }
    return Status::OK();
  };

  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.durability_error().ok());
  armed.store(true);
  GraphDelta delta;
  delta.AddVertex("Job");
  EXPECT_FALSE(engine.ApplyDelta(std::move(delta)).ok());
  armed.store(false);
  GraphDelta retry;
  retry.AddVertex("Job");
  EXPECT_TRUE(engine.ApplyDelta(std::move(retry)).ok());
}

}  // namespace
}  // namespace kaskade
