// Self-test of the benchmark's helpers: the tail-percentile rule and the
// determinism of the op streams. Exits non-zero on the first failure.
//
// Build and run: python3 perfbench/run.py --selftest

#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "opstream.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

perfbench::Samples Ramp(size_t n) {
  perfbench::Samples s;
  for (size_t i = 1; i <= n; ++i) s.Add(static_cast<double>(i));
  return s;
}

template <typename Stream>
uint64_t DigestAfter(Stream stream, size_t ops) {
  for (size_t i = 0; i < ops; ++i) stream.Next();
  return stream.digest();
}

void TailRule() {
  using namespace perfbench;
  Check(!Ramp(999).Tail(kP99).has_value(), "p99 refused from 999 samples");
  Check(!Ramp(10).Tail(kP99).has_value(), "p99 refused from 10 samples");
  Check(Ramp(1000).Tail(kP99) == 990.0, "p99 of 1..1000 is 990");
  Check(!Ramp(99).Tail(kP90).has_value(), "p90 refused from 99 samples");
  Check(Ramp(100).Tail(kP90) == 90.0, "p90 of 1..100 is 90");
  Check(Ramp(100).Percentile(kP50) == 50.0, "p50 of 1..100 is 50");
  Check(HighestTail(999) == kP90, "999 samples support p90 at most");
  Check(HighestTail(10000) == kP999, "10000 samples support p99.9");
  Check(!HighestTail(5).has_value(), "5 samples support no percentile");
}

void StreamsArePureFunctionsOfTheSeed() {
  using namespace perfbench;
  constexpr size_t kOps = 2000;
  Check(DigestAfter(RoundStream(7, 4), kOps) ==
            DigestAfter(RoundStream(7, 4), kOps),
        "round stream: same seed, same digest");
  Check(DigestAfter(RoundStream(7, 4), kOps) !=
            DigestAfter(RoundStream(8, 4), kOps),
        "round stream: different seed, different digest");
  Check(DigestAfter(ChurnStream(7, 4000, 10000, 16), kOps) ==
            DigestAfter(ChurnStream(7, 4000, 10000, 16), kOps),
        "churn stream: same seed, same digest");
  Check(DigestAfter(ChurnStream(7, 4000, 10000, 16), kOps) !=
            DigestAfter(ChurnStream(8, 4000, 10000, 16), kOps),
        "churn stream: different seed, different digest");
  Check(DigestAfter(SocialStream(7, 0, 60000, 100, 8), kOps) ==
            DigestAfter(SocialStream(7, 0, 60000, 100, 8), kOps),
        "social stream: same seed, same digest");
  Check(DigestAfter(SocialStream(7, 0, 60000, 100, 8), kOps) !=
            DigestAfter(SocialStream(8, 0, 60000, 100, 8), kOps),
        "social stream: different seed, different digest");
  Check(DigestAfter(SocialStream(7, 0, 60000, 100, 8), kOps) !=
            DigestAfter(SocialStream(7, 1, 60000, 100, 8), kOps),
        "social stream: clients of one seed differ");

  // The churn stream's shape: 12 inserts, 4 removals, read of a written job.
  ChurnCycle cycle = ChurnStream(3, 4000, 10000, 16).Next();
  Check(cycle.inserts.size() == 12 && cycle.removal_slots.size() == 4 &&
            cycle.read_job_slot == cycle.inserts.front().first,
        "churn cycle: 3/4 inserts, 1/4 removals, reads a written job");

  // Zipf ranks stay in range and favour low ranks as the exponent says:
  // P(rank < 100) is ln(101)/ln(60001), about 42%, at exponent 1 and
  // (101^0.3 - 1)/(60001^0.3 - 1), about 11%, at 0.7.
  for (auto [exponent, lo, hi] : {std::tuple{1.0, 3800, 4600},
                                  std::tuple{0.7, 900, 1400}}) {
    Rng rng(11);
    size_t low = 0, in_range = 0;
    for (int i = 0; i < 10000; ++i) {
      uint64_t r = rng.ZipfRank(60000, exponent);
      in_range += r < 60000 ? 1 : 0;
      low += r < 100 ? 1 : 0;
    }
    Check(in_range == 10000, "zipf ranks stay in range");
    Check(low > size_t(lo) && low < size_t(hi),
          "zipf: share of draws in the top 100 matches the exponent");
  }
}

}  // namespace

int main() {
  TailRule();
  StreamsArePureFunctionsOfTheSeed();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
