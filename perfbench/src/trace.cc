#include "trace.h"

#include <cstdio>

#include "common/macros.h"

namespace perfbench {

size_t Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  spans_.push_back(span);
  const size_t index = spans_.size() - 1;
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_[index].start_ns = NowNs();
  return index;
}

void Tracer::End(size_t index) {
  const int64_t now = NowNs();
  SQE_CHECK_MSG(!open_.empty() && open_.back() == index,
                "spans must close innermost first");
  open_.pop_back();
  spans_[index].end_ns = now;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self_seconds;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self_seconds[spans_[i].name] +=
        static_cast<double>(duration - child_ns[i]) * 1e-9;
  }
  return self_seconds;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
