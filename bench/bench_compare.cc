/// \file bench_compare.cc
/// \brief Regression gate for the micro-bench JSON files.
///
///     bench_compare <committed BENCH_x.json> <fresh BENCH_x.json>
///
/// Diffs a fresh `BENCH_<name>.json` (as written by `JsonReport`)
/// against the committed one over a fixed list of dimensionless ratios —
/// speedups and copy fractions, which carry across machines where raw
/// seconds do not. Each gate names a section (or `*`, every section) and
/// a metric (or `*suffix`, every metric ending in `suffix`), a direction
/// and a relative tolerance: a higher-is-better metric regresses when the
/// fresh value falls below `committed * (1 - tolerance)`, a
/// lower-is-better one when it rises above `committed * (1 + tolerance)`.
/// Parallel-scaling gates are skipped when either run recorded
/// `meta/hardware_threads == 1`: a one-thread host measures no scaling.
///
/// Exit status: 0 when every gated metric holds, 1 when any regressed or
/// is missing from the fresh file, 2 on a usage or parse error (or a
/// bench with no gates, so a typo cannot pass silently).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace {

enum class Better { kHigher, kLower };

struct Gate {
  const char* bench;
  const char* section;  ///< "*" matches every section.
  const char* metric;   ///< A leading '*' matches by suffix.
  Better better;
  double tolerance;
  bool needs_threads = false;  ///< Skipped on one-thread runs.
};

// Timing ratios get a wide tolerance: CI runners are noisy and differ
// from the machine the committed file came from (five Release runs on
// one 4-vCPU VM spread the 1-edge speedup over 163-237x and the 0.1%
// one over 5.7-7.5x). Copy fractions and fusion's expansion-count
// ratio are deterministic for a seeded run, so theirs are tight.
// Incremental-maintenance speedups divide by sub-millisecond passes and
// spread widest of all (two Release runs on a 4-vCPU VM gave khop2
// speedups of 171-251x where the committed file has 83-505x), so their
// gate only catches a collapse toward re-materialization cost.
//
// Q1's SELECT overhead (full query / its MATCH alone) divides two timings
// taken in one process, so host speed cancels; the tolerance keeps runs
// of today's column-batch evaluator (0.98-1.20x on a 4-vCPU VM) inside and
// the string-keyed evaluator of two generations back (2.0-2.35x)
// outside. Q2's engine overhead (`Engine::Execute` over a khop2 view /
// the executor alone on that view's snapshot) is a same-process ratio
// too: with the view ids mapped in place it reads 0.99-1.12x there; the
// copying row mapping it replaced read 1.52-1.53x. Since results became
// flat cell arrays the executor is faster and the engine's fixed cost
// weighs more: ten Release runs read 1.12-1.36x.
//
// Q2's result-table build (`q2_table_ns_per_row`, build and free under
// default malloc) is the one gated figure that is not a ratio: no
// same-process baseline exists for it. Ten Release runs of the
// flat-cell table on a 4-vCPU VM read 5.0-8.5 ns a row, and six of the
// one-vector-per-row table it replaced 43-60 ns. The tolerance lets a
// run 2.5x the committed figure pass, which spans that host's spread
// with room for a slower CI runner, and still fails a return to
// per-row allocation.
//
// Fusion's `batch_speedup` (a 100-query same-shape batch, solo / fused
// wall time) is a same-process ratio too. Seven Release runs on a 4-vCPU
// VM read 1.20-1.51 with the indexed equality probe, and six of the
// per-member compare loop it replaced 0.87-1.13. Most of that batch is
// per-member parse and plan time, which fusion does not share, so the
// ratio sits close to 1 and moves with host noise; the tolerance spans
// the spread and fails a fused batch that falls back well below solo.
constexpr Gate kGates[] = {
    {"query_latency", "*", "*_csr_speedup", Better::kHigher, 0.6},
    {"query_latency", "select", "q1_select_overhead", Better::kLower, 0.4},
    {"query_latency", "view_read", "q2_engine_overhead", Better::kLower, 0.3},
    {"query_latency", "view_read", "q2_table_ns_per_row", Better::kLower, 1.5},
    {"query_latency", "fusion", "expansion_ratio", Better::kHigher, 0.1},
    {"query_latency", "fusion", "batch_speedup", Better::kHigher, 0.3},
    {"query_latency", "*", "*_scaling", Better::kHigher, 0.6,
     /*needs_threads=*/true},
    {"delta_maintenance", "*", "speedup", Better::kHigher, 0.8},
    {"snapshot_refresh", "delta_1_edge", "snapshot_speedup", Better::kHigher,
     0.6},
    {"snapshot_refresh", "delta_0.1pct", "snapshot_speedup", Better::kHigher,
     0.6},
    {"snapshot_refresh", "sharing_1_edge", "fraction_of_csr_bytes",
     Better::kLower, 0.25},
    {"snapshot_refresh", "sharing_0.1pct_clustered", "fraction_of_csr_bytes",
     Better::kLower, 0.25},
};

struct BenchFile {
  std::string bench;
  std::map<std::pair<std::string, std::string>, double> values;
};

/// Reads the JSON string value following `"key":` at or after `*pos`.
std::optional<std::string> StringField(const std::string& text,
                                       const std::string& key, size_t* pos) {
  size_t at = text.find("\"" + key + "\"", *pos);
  if (at == std::string::npos) return std::nullopt;
  at = text.find(':', at);
  if (at == std::string::npos) return std::nullopt;
  const size_t open = text.find('"', at + 1);
  if (open == std::string::npos) return std::nullopt;
  const size_t close = text.find('"', open + 1);
  if (close == std::string::npos) return std::nullopt;
  *pos = close + 1;
  return text.substr(open + 1, close - open - 1);
}

/// Parses the fixed shape `JsonReport::Finish` writes: a "bench" name
/// and a list of {"section", "metric", "value"} objects.
std::optional<BenchFile> Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  BenchFile file;
  size_t pos = 0;
  std::optional<std::string> bench = StringField(text, "bench", &pos);
  if (!bench) {
    std::fprintf(stderr, "bench_compare: %s has no \"bench\" name\n",
                 path.c_str());
    return std::nullopt;
  }
  file.bench = *bench;
  while (true) {
    std::optional<std::string> section = StringField(text, "section", &pos);
    if (!section) break;
    std::optional<std::string> metric = StringField(text, "metric", &pos);
    size_t at = metric ? text.find("\"value\"", pos) : std::string::npos;
    if (at != std::string::npos) at = text.find(':', at);
    if (at == std::string::npos) {
      std::fprintf(stderr, "bench_compare: %s: malformed entry in section %s\n",
                   path.c_str(), section->c_str());
      return std::nullopt;
    }
    const char* begin = text.c_str() + at + 1;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) {
      std::fprintf(stderr, "bench_compare: %s: bad value for %s/%s\n",
                   path.c_str(), section->c_str(), metric->c_str());
      return std::nullopt;
    }
    pos = static_cast<size_t>(end - text.c_str());
    file.values[{*section, *metric}] = value;
  }
  return file;
}

bool Matches(const char* pattern, const std::string& value) {
  if (pattern[0] != '*') return value == pattern;
  const std::string suffix = pattern + 1;
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool SingleThreaded(const BenchFile& file) {
  auto it = file.values.find({"meta", "hardware_threads"});
  return it != file.values.end() && it->second == 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <committed.json> <fresh.json>\n", argv[0]);
    return 2;
  }
  std::optional<BenchFile> committed = Load(argv[1]);
  std::optional<BenchFile> fresh = Load(argv[2]);
  if (!committed || !fresh) return 2;
  if (committed->bench != fresh->bench) {
    std::fprintf(stderr, "bench_compare: comparing bench %s against %s\n",
                 committed->bench.c_str(), fresh->bench.c_str());
    return 2;
  }

  size_t gated = 0;
  bool regressed = false;
  const bool single_threaded =
      SingleThreaded(*committed) || SingleThreaded(*fresh);
  std::printf("%-26s %-30s %12s %12s %12s  %s\n", "section", "metric",
              "committed", "fresh", "limit", "verdict");
  for (const Gate& gate : kGates) {
    if (committed->bench != gate.bench) continue;
    ++gated;
    size_t matched = 0;
    for (const auto& [key, base] : committed->values) {
      if (!Matches(gate.section, key.first) ||
          !Matches(gate.metric, key.second)) {
        continue;
      }
      ++matched;
      if (gate.needs_threads && single_threaded) {
        std::printf("%-26s %-30s %12.4g %12s %12s  skipped (1 hardware "
                    "thread)\n",
                    key.first.c_str(), key.second.c_str(), base, "-", "-");
        continue;
      }
      const bool higher = gate.better == Better::kHigher;
      const double limit =
          base * (higher ? 1.0 - gate.tolerance : 1.0 + gate.tolerance);
      auto now = fresh->values.find(key);
      const char* verdict = "ok";
      if (now == fresh->values.end()) {
        verdict = "MISSING";
        regressed = true;
      } else if (higher ? now->second < limit : now->second > limit) {
        verdict = "REGRESSED";
        regressed = true;
      }
      std::printf("%-26s %-30s %12.4g %12.4g %12.4g  %s (%s is better)\n",
                  key.first.c_str(), key.second.c_str(), base,
                  now == fresh->values.end() ? 0.0 : now->second, limit,
                  verdict, higher ? "higher" : "lower");
    }
    if (matched == 0) {
      std::fprintf(stderr, "bench_compare: committed file lacks %s/%s\n",
                   gate.section, gate.metric);
      return 2;
    }
  }
  if (gated == 0) {
    std::fprintf(stderr, "bench_compare: no gates for bench %s\n",
                 committed->bench.c_str());
    return 2;
  }
  return regressed ? 1 : 0;
}
