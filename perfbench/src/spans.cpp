#include "spans.h"

#include <chrono>
#include <cstdio>

namespace iuad::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const char* name, int64_t id) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t id) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  spans_.push_back(s);
}

std::vector<double> SpanSeconds(const std::vector<const SpanLog*>& logs,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
      }
    }
  }
  return out;
}

double TotalSpanSeconds(const std::vector<const SpanLog*>& logs,
                        const std::string& name) {
  double total = 0.0;
  for (double s : SpanSeconds(logs, name)) total += s;
  return total;
}

std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs,
                            int64_t origin_ns) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const char* parent =
          s.parent >= 0 ? log->spans()[static_cast<size_t>(s.parent)].name
                        : "";
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                    "\"args\":{\"id\":%lld,\"parent\":\"%s\"}}",
                    first ? "" : ",", s.name,
                    static_cast<double>(s.start_ns - origin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    log->tid(), static_cast<long long>(s.id), parent);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace iuad::perfbench
