#include "opstream.h"

#include <cmath>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::ZipfRank(uint64_t n, double exponent) {
  const double top = static_cast<double>(n) + 1.0;
  const double u = Unit();
  double x;
  if (exponent == 1.0) {
    x = std::pow(top, u);
  } else {
    const double a = 1.0 - exponent;
    x = std::pow((std::pow(top, a) - 1.0) * u + 1.0, 1.0 / a);
  }
  uint64_t rank = static_cast<uint64_t>(x) - 1;
  return rank < n ? rank : n - 1;
}

uint64_t StreamSeed(uint64_t seed, uint64_t workload_tag, uint64_t client) {
  Rng mix(seed ^ (workload_tag * 0x100000001b3ull));
  uint64_t s = mix.Next();
  for (uint64_t i = 0; i <= client; ++i) s = mix.Next() ^ (s << 1);
  return s;
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Add(std::string_view s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  Add(s.size());
}

RoundStream::RoundStream(uint64_t seed, size_t set_size)
    : rng_(StreamSeed(seed, 1, 0)), set_size_(set_size) {}

std::vector<size_t> RoundStream::Next() {
  std::vector<size_t> order(set_size_);
  for (size_t i = 0; i < set_size_; ++i) order[i] = i;
  // Fisher-Yates on explicit arithmetic.
  for (size_t i = set_size_; i > 1; --i) {
    std::swap(order[i - 1], order[rng_.Below(i)]);
  }
  for (size_t q : order) digest_.Add(q);
  return order;
}

ChurnStream::ChurnStream(uint64_t seed, size_t jobs, size_t files,
                         size_t edges_per_delta)
    : rng_(StreamSeed(seed, 2, 0)),
      jobs_(jobs),
      files_(files),
      removals_(edges_per_delta / 4),
      inserts_(edges_per_delta - edges_per_delta / 4) {}

ChurnCycle ChurnStream::Next() {
  ChurnCycle cycle;
  cycle.inserts.reserve(inserts_);
  for (size_t i = 0; i < inserts_; ++i) {
    auto job = static_cast<uint32_t>(rng_.Below(jobs_));
    auto file = static_cast<uint32_t>(rng_.Below(files_));
    cycle.inserts.emplace_back(job, file);
    digest_.Add((uint64_t{job} << 32) | file);
  }
  cycle.removal_slots.reserve(removals_);
  for (size_t i = 0; i < removals_; ++i) {
    cycle.removal_slots.push_back(rng_.Next());
    digest_.Add(cycle.removal_slots.back());
  }
  // Read back a job the delta just wrote from, so the read observes it.
  cycle.read_job_slot = cycle.inserts.front().first;
  return cycle;
}

SocialStream::SocialStream(uint64_t seed, size_t client, size_t persons,
                           int batch_per_mille, size_t batch_size)
    : rng_(StreamSeed(seed, 3, client)),
      persons_(persons),
      batch_per_mille_(batch_per_mille),
      batch_size_(batch_size) {}

uint32_t SocialStream::Anchor() {
  uint64_t rank = rng_.ZipfRank(persons_, kAnchorZipfExponent);
  return static_cast<uint32_t>((rank * 2654435761ull) % persons_);
}

SocialOp SocialStream::Next() {
  SocialOp op;
  op.batch = static_cast<int>(rng_.Below(1000)) < batch_per_mille_;
  op.template_index = static_cast<int>(rng_.Below(3));
  size_t n = op.batch ? batch_size_ : 1;
  op.persons.reserve(n);
  for (size_t i = 0; i < n; ++i) op.persons.push_back(Anchor());
  digest_.Add(uint64_t{op.batch});
  digest_.Add(static_cast<uint64_t>(op.template_index));
  for (uint32_t p : op.persons) digest_.Add(uint64_t{p});
  return op;
}

}  // namespace perfbench
