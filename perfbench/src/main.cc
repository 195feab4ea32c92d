/// \file main.cc
/// \brief `perfbench`: runs one benchmark workload against the engine and
/// prints its report.
///
/// Usage: perfbench --workload <prov_analytics|prov_churn|social_point>
///                  --seed <n> --seconds <s> --trace <0|1>
///                  [--work-dir <dir>] [--span-file <path>]
///
/// The output is human-readable lines, then one `REPORT {...}` line with
/// everything the run measured (metadata, per-class and per-layer
/// metrics, coverage), then as the last line the result object:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, holding
/// the end-to-end metrics untraced and the per-layer metrics traced.
/// Exits 1 on any failed op, answer mismatch, or unmeasurable metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-42s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-42s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <prov_analytics|"
               "prov_churn|social_point> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--span-file <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--span-file") {
      config.span_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(config.seconds > 0)) Usage("--seconds must be positive");

  Report report;
  if (config.workload == "prov_analytics") {
    report = perfbench::RunProvAnalytics(config);
  } else if (config.workload == "prov_churn") {
    report = perfbench::RunProvChurn(config);
  } else if (config.workload == "social_point") {
    report = perfbench::RunSocialPoint(config);
  } else {
    Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  for (const char* var : {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}) {
    const char* value = std::getenv(var);
    report.Meta(var, value != nullptr ? value : "unset");
  }

  const uint64_t failed = report.failed_ops + report.mismatches;
  const double failed_ratio =
      report.attempted > 0 ? static_cast<double>(failed) / report.attempted : 1;
  report.classes.push_back({"failed_ratio", failed_ratio, "ratio"});
  report.classes.push_back({"peak_rss_mb", perfbench::PeakRssMb(), "MiB"});

  // Every metric the result object carries must have been measured. A
  // traced run carries per-layer metrics only (its latency tails may fall
  // short of the tail rule).
  bool measured = true;
  if (config.trace) {
    measured = !report.layers.empty();
    if (!measured) report.Error("traced run produced no per-layer metrics");
  } else {
    measured = !report.end_to_end.empty();
    for (const Metric& m : report.end_to_end) {
      if (!(m.value > 0) || !std::isfinite(m.value)) {
        measured = false;
        report.Error("end-to-end metric " + m.name + " was not measured");
      }
    }
  }

  std::printf("workload %s  seed %llu  trace %d\n", report.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  std::printf("inputs\n");
  for (const auto& [k, v] : report.meta) {
    std::printf("  %-30s %s\n", k.c_str(), v.c_str());
  }
  PrintMetrics("per-class end-to-end metrics", report.classes);
  PrintMetrics("gated end-to-end metrics", report.end_to_end);
  PrintMetrics("per-layer metrics", report.layers);
  if (!report.coverage.empty()) {
    std::printf("coverage (children's summed self time / root span)\n");
    for (const perfbench::Coverage& c : report.coverage) {
      std::printf("  %-30s ops %-8llu root %12.1f us  children %12.1f us  "
                  "coverage %.3f\n",
                  c.root.c_str(), static_cast<unsigned long long>(c.ops),
                  c.root_us, c.child_us, c.ratio());
    }
  }
  std::printf("attempted %llu  failed ops %llu  mismatches %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed_ops),
              static_cast<unsigned long long>(report.mismatches));
  for (const std::string& n : report.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& e : report.errors) std::printf("error: %s\n", e.c_str());

  // Full report for tooling (steady.py), then the result object.
  std::string full = "{\"workload\": " + JsonString(report.workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"trace\": " + (config.trace ? "1" : "0") + ", \"meta\": {";
  for (size_t i = 0; i < report.meta.size(); ++i) {
    full += (i ? ", " : "") + JsonString(report.meta[i].first) + ": " +
            JsonString(report.meta[i].second);
  }
  full += "}, \"classes\": " + MetricsObject(report.classes) +
          ", \"end_to_end\": " + MetricsObject(report.end_to_end) +
          ", \"layers\": " + MetricsObject(report.layers) + ", \"coverage\": {";
  for (size_t i = 0; i < report.coverage.size(); ++i) {
    const perfbench::Coverage& c = report.coverage[i];
    full += (i ? ", " : "") + JsonString(c.root) + ": {\"ops\": " +
            std::to_string(c.ops) + ", \"root_us\": " + JsonNumber(c.root_us) +
            ", \"child_us\": " + JsonNumber(c.child_us) +
            ", \"ratio\": " + JsonNumber(c.ratio()) + "}";
  }
  full += "}}";
  std::printf("REPORT %s\n", full.c_str());

  std::vector<Metric> contract = config.trace ? report.layers : report.end_to_end;
  for (Metric& m : contract) m.samples = 0;
  const bool ok = report.correct() && measured;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(failed),
              MetricsObject(contract).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
