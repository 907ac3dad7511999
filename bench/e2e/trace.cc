#include "trace.h"

#include <cstdio>
#include <map>

#include "common/logging.h"

namespace amalur {
namespace e2e {

size_t Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.pass = pass_;
  span.start_us = clock_.ElapsedSeconds() * 1e6;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  AMALUR_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  open_.pop_back();
  Span& span = spans_[index];
  span.duration_us = clock_.ElapsedSeconds() * 1e6 - span.start_us;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write ", path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"pass\": %lld, \"span\": %zu, \"parent\": %lld}}",
                 i == 0 ? "" : ",\n", span.name.c_str(), span.start_us,
                 span.duration_us, static_cast<long long>(span.pass), i,
                 static_cast<long long>(span.parent));
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) return Status::IOError("cannot close ", path);
  return Status::OK();
}

std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> by_name;
  for (const Span& span : spans) {
    SpanStats& stats = by_name[span.name];
    stats.calls += 1;
    stats.total_us += span.duration_us;
    if (span.parent >= 0) {
      by_name[spans[static_cast<size_t>(span.parent)].name].child_us +=
          span.duration_us;
    }
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace e2e
}  // namespace amalur
