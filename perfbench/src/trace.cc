#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

std::vector<Coverage> ComputeCoverage(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, Coverage> by_root;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    for (const SpanRecord& span : spans) {
      if (span.parent < 0) {
        if (span.probe) continue;
        Coverage& c = by_root[span.name];
        c.root = span.name;
        ++c.ops;
        c.root_us += span.micros();
      } else if (!span.probe) {
        by_root[spans[span.parent].name].child_us += span.micros();
      }
    }
  }
  std::vector<Coverage> out;
  for (auto& [name, c] : by_root) out.push_back(c);
  return out;
}

bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point epoch = Clock::time_point::max();
  for (const Tracer* tracer : tracers) {
    for (const SpanRecord& span : tracer->spans()) {
      if (span.start < epoch) epoch = span.start;
    }
  }
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      std::fprintf(f,
                   "{\"op\":%llu,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"dur_us\":%.3f,\"probe\":%s}\n",
                   static_cast<unsigned long long>(span.op), i, span.parent,
                   span.name, MicrosBetween(epoch, span.start), span.micros(),
                   span.probe ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
