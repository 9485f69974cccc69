#ifndef IUAD_PERFBENCH_SPANS_H_
#define IUAD_PERFBENCH_SPANS_H_

/// \file spans.h
/// The traced run's span log: one span per call the benchmark makes into a
/// layer (name, start, end, parent span, and the stream sequence number as
/// the id shared by every span of one paper). Spans stay in memory while
/// timing and are written as Chrome trace-event JSON, which Perfetto
/// loads, only after the run. Untraced runs pass a null log and record
/// nothing.

#include <cstdint>
#include <string>
#include <vector>

namespace iuad::perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  const char* name = "";  ///< Static string: the layer call, e.g. "text.train".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span in the same log.
  int64_t id = -1;      ///< Stream sequence number; -1 outside a stream.
};

/// Spans recorded by one thread. Not thread-safe: give every recording
/// thread its own log.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) { spans_.reserve(1 << 14); }

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(const char* name, int64_t id = -1);
  /// Closes span `index` (the innermost open span).
  void End(int index);
  /// Records an already-measured interval as a child of the innermost open
  /// span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t id = -1);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on an optional log: a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id = -1)
      : log_(log), index_(log != nullptr ? log->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Durations in seconds of every span called `name` across `logs`.
std::vector<double> SpanSeconds(const std::vector<const SpanLog*>& logs,
                                const std::string& name);

/// Sum of SpanSeconds.
double TotalSpanSeconds(const std::vector<const SpanLog*>& logs,
                        const std::string& name);

/// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X" events in
/// microseconds relative to `origin_ns`; args carry the id and the parent
/// span's name).
std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs,
                            int64_t origin_ns);

}  // namespace iuad::perfbench

#endif  // IUAD_PERFBENCH_SPANS_H_
