#pragma once

// In-memory span recording for the traced run. Each thread that records
// owns one SpanBuffer; nothing is shared while recording, and the
// buffers are merged and written out once the run is over.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide origin (the first call).
int64_t NowNanos();

/// One finished (or still open: end_ns < 0) span.
struct Span {
  const char* name = "";  ///< static string: the layer call it wraps
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int32_t parent = -1;    ///< index in the same buffer, -1 for a root
  uint64_t request = 0;   ///< request id; 0 outside the serving loop
};

/// The spans of one thread, in start order.
class SpanBuffer {
 public:
  explicit SpanBuffer(int thread_id) : thread_id_(thread_id) {}

  /// Opens a span whose parent is the innermost open span.
  int32_t Begin(const char* name, uint64_t request);
  /// Closes span `index`, which must be the innermost open one.
  void End(int32_t index);
  /// Appends a finished span [start_ns, end_ns] under the innermost
  /// open span (for an interval that ends on another thread's signal).
  void Record(const char* name, int64_t start_ns, int64_t end_ns);
  /// Renames span `index` (an ingest becomes a reselect once the
  /// advisor's counter shows it ran one).
  void Rename(int32_t index, const char* name) { spans_[index].name = name; }

  const std::vector<Span>& spans() const { return spans_; }
  int thread_id() const { return thread_id_; }

 private:
  int thread_id_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null buffer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request = 0)
      : buffer_(buffer),
        index_(buffer ? buffer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Per-name totals over every buffer: durations and self times (a
/// span's duration minus the time its child spans cover).
struct LayerTimes {
  std::vector<double> duration_ms;  ///< one entry per span
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTimes> SummarizeSpans(
    const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as one JSON object per line (name, start_us,
/// end_us, parent, request, thread).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
