/// \file opstream.h
/// \brief Deterministic op streams: every op a client sends is a pure
/// function of `(seed, workload, client index, position)`.
///
/// The streams use splitmix64 and explicit arithmetic only (no
/// `std::*_distribution`, whose mappings differ between standard
/// libraries). Each stream folds every op it emits into an FNV-1a
/// digest, so two runs can be shown to have offered identical traffic.
/// Ops are symbolic: they name slots into the workload's vertex pools,
/// which the workload resolves against the graph it generated.

#ifndef PERFBENCH_OPSTREAM_H_
#define PERFBENCH_OPSTREAM_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64 generator with helpers for uniform and Zipf draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) from the top 53 bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n must be non-zero.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Zipf-like rank in [0, n) with P(rank k) roughly proportional to
  /// (k+1)^-exponent: the inverse CDF of the continuous x^-exponent law on
  /// [1, n+1).
  uint64_t ZipfRank(uint64_t n, double exponent);

 private:
  uint64_t state_;
};

/// Mixes the run seed with a workload tag and a client index into an
/// independent stream seed.
uint64_t StreamSeed(uint64_t seed, uint64_t workload_tag, uint64_t client);

/// Order-sensitive FNV-1a digest.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// prov_analytics: the order in which one round runs the fixed analytic
/// set (a seeded permutation of `0..set_size-1`).
class RoundStream {
 public:
  RoundStream(uint64_t seed, size_t set_size);
  std::vector<size_t> Next();
  uint64_t digest() const { return digest_.value(); }

 private:
  Rng rng_;
  size_t set_size_;
  Digest digest_;
};

/// One prov_churn cycle: an `ApplyDelta` of `inserts` (job slot, file
/// slot) WRITES_TO edges plus removals of the client's own earlier
/// inserts (each slot resolved modulo the owned-edge count when the
/// delta is built), then one anchored read of `read_job_slot`.
struct ChurnCycle {
  std::vector<std::pair<uint32_t, uint32_t>> inserts;
  std::vector<uint64_t> removal_slots;
  uint32_t read_job_slot = 0;
};

class ChurnStream {
 public:
  /// `edges_per_delta` edges per cycle, a quarter of them removals;
  /// endpoints uniform over `jobs` x `files`.
  ChurnStream(uint64_t seed, size_t jobs, size_t files,
              size_t edges_per_delta);
  ChurnCycle Next();
  uint64_t digest() const { return digest_.value(); }

 private:
  Rng rng_;
  size_t jobs_;
  size_t files_;
  size_t removals_;
  size_t inserts_;
  Digest digest_;
};

/// One social_point op: a solo anchored lookup (`persons.size() == 1`)
/// or an `ExecuteBatch` of same-template lookups.
struct SocialOp {
  bool batch = false;
  /// 0 = 1-hop, 1 = 2-hop chain, 2 = `*1..2` traversal.
  int template_index = 0;
  std::vector<uint32_t> persons;
};

class SocialStream {
 public:
  /// Skew of the anchors. A plan-cache hit skips a plan search that costs
  /// more than the lookup itself, so lookup latency has a hit mode and a
  /// miss mode; this skew keeps hits near a tenth of lookups, so the
  /// median stays inside the miss mode instead of between the two (at
  /// exponent 1 about 40% hit and the median jumped between modes from
  /// run to run).
  static constexpr double kAnchorZipfExponent = 0.7;

  /// `batch_per_mille` of the ops are batches of `batch_size`; anchors
  /// are Zipf-ranked (exponent `kAnchorZipfExponent`) over `persons`, with
  /// ranks scattered over the id space so hot anchors are not clustered
  /// at low ids.
  SocialStream(uint64_t seed, size_t client, size_t persons,
               int batch_per_mille, size_t batch_size);
  SocialOp Next();
  uint64_t digest() const { return digest_.value(); }

 private:
  uint32_t Anchor();

  Rng rng_;
  size_t persons_;
  int batch_per_mille_;
  size_t batch_size_;
  Digest digest_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPSTREAM_H_
