// In-memory span recorder for the traced run.
//
// The benchmark records spans around its own calls into each layer's
// public functions; nothing inside the library is instrumented. A span has
// a name, a start, an end, the span that was open when it began (its
// parent) and a request id shared by every span of one request. Spans stay
// in memory until the run ends, then are written in Chrome trace-event
// format (viewable in Perfetto or chrome://tracing).
//
// A layer's self time is the duration of its spans minus the part covered
// by their child spans. The recorder is single-threaded by design: the
// traced replay runs stage by stage on one thread, so a parent stack is
// exact and no lock sits on the timed path.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    int64_t parent = -1;         // index into spans(), -1 for a root
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Opens a span under the innermost open one. Returns its index.
  size_t Begin(const char* name, uint64_t request);
  /// Closes the innermost open span, which must be `index`.
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  double DurationSeconds(size_t index) const {
    return static_cast<double>(spans_[index].end_ns - spans_[index].start_ns) *
           1e-9;
  }

  /// Self time in seconds per span name, over all closed spans.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as a Chrome trace event. False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// records nothing, so untraced callers share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
