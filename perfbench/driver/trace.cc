#include "driver/trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int64_t NowNanos() {
  static const SteadyClock::time_point origin = SteadyClock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - origin)
      .count();
}

int32_t SpanBuffer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  // Read the clock last so the span does not time its own bookkeeping.
  span.start_ns = NowNanos();
  spans_.push_back(span);
  return index;
}

void SpanBuffer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanBuffer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
}

std::map<std::string, LayerTimes> SummarizeSpans(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, LayerTimes> out;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0 && span.end_ns >= 0) {
        child_ms[static_cast<size_t>(span.parent)] +=
            1e-6 * static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end_ns < 0) continue;
      const double ms =
          1e-6 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      LayerTimes& layer = out[spans[i].name];
      layer.duration_ms.push_back(ms);
      layer.total_ms += ms;
      layer.self_ms += ms - child_ms[i];
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%" PRId32 ",\"request\":%" PRIu64
                   ",\"thread\":%d}\n",
                   span.name, 1e-3 * static_cast<double>(span.start_ns),
                   1e-3 * static_cast<double>(span.end_ns), span.parent,
                   span.request, buffer->thread_id());
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
