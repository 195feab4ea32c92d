/// \file trace.h
/// \brief In-memory spans recorded by the benchmark around its own calls
/// into each layer's public entry points.
///
/// A traced op has one root span (the engine call a user makes) and child
/// spans, one per layer call the benchmark replays on the same engine
/// state in the engine's order. Probe spans time an extra call that is
/// not a step of the engine's path (for example an uncached plan search
/// on a plan-cache hit); they carry the layer's cost but are left out of
/// the coverage sum. Each client thread owns one `Tracer`; the spans are
/// merged and written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline Clock::time_point SecondsAfter(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct SpanRecord {
  uint64_t op = 0;       ///< Op identifier shared by the op's spans.
  int32_t parent = -1;   ///< Index of the parent span in the tracer; -1 = root.
  const char* name = "";  ///< Static layer name.
  Clock::time_point start;
  Clock::time_point end;
  bool probe = false;

  double micros() const { return MicrosBetween(start, end); }
};

class Tracer {
 public:
  /// `thread_index` keeps op identifiers distinct across client threads.
  explicit Tracer(uint64_t thread_index) : next_op_(thread_index << 40) {}

  uint64_t NewOp() { return next_op_++; }

  /// Records a span and returns its index (the parent handle children use).
  int32_t Record(uint64_t op, int32_t parent, const char* name,
                 Clock::time_point start, Clock::time_point end,
                 bool probe = false) {
    spans_.push_back({op, parent, name, start, end, probe});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_op_;
  std::vector<SpanRecord> spans_;
};

/// Coverage of one root span name: the children's summed self time over
/// the roots' summed duration. Children here are leaves, so a child's
/// self time is its duration.
struct Coverage {
  std::string root;
  uint64_t ops = 0;
  double root_us = 0;
  double child_us = 0;

  double ratio() const { return root_us > 0 ? child_us / root_us : 0; }
};

/// Coverage per root name over every tracer's spans.
std::vector<Coverage> ComputeCoverage(const std::vector<const Tracer*>& tracers);

/// Writes every span as one JSON object per line. Returns false when the
/// file cannot be written.
bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
