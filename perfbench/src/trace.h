// In-memory span recording for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public entry point (the
// library itself is not instrumented), kept in memory, and written out
// once when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span store; give each recording thread its own.
class SpanRecorder {
 public:
  /// Index of `name` in the name table, adding it on first use.
  std::uint32_t Intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span now; returns its index for End and for children.
  std::int32_t Begin(std::uint32_t name, std::int32_t parent,
                     std::uint64_t request) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = NowNs();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void End(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends every span as a tab-separated line
  /// (name, start_ns, end_ns, parent, request); false on I/O failure.
  bool AppendTsv(std::FILE* out, const std::string& prefix) const {
    for (const Span& s : spans_) {
      if (std::fprintf(out, "%s%s\t%lld\t%lld\t%d\t%llu\n", prefix.c_str(),
                       names_[s.name].c_str(),
                       static_cast<long long>(s.start),
                       static_cast<long long>(s.end), s.parent,
                       static_cast<unsigned long long>(s.request)) < 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
