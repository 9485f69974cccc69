#include "util/logging.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iuad {

namespace {
const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarning: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

/// Monotonic seconds since the first log call — short, sortable stamps
/// instead of wall-clock noise (the process start is what on-call aligns
/// spans and stats dumps against anyway).
double MonotonicSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Compact per-thread id: threads get 1, 2, 3... in first-log order — far
/// more readable in an interleaved stream than pthread handles.
int ThreadTag() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Emits one complete line with a single write(2) so concurrent loggers
/// never shear each other's lines mid-text (POSIX write atomicity covers
/// ordinary pipe/terminal sinks at log-line sizes). fprintf buffers per
/// FILE* and can interleave fragments; this is the fix that keeps the
/// --stats-interval dumps and slow-commit spans readable under load.
void WriteLineToStderr(const std::string& line) {
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::write(STDERR_FILENO, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // stderr gone; nothing sensible left to do
    }
    off += static_cast<size_t>(n);
  }
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  char prefix[96];
  std::snprintf(prefix, sizeof(prefix), "[%s %.3f t%d %s:%d] ",
                LevelTag(level), MonotonicSeconds(), ThreadTag(),
                Basename(file), line);
  stream_ << prefix;
}

LogMessage::~LogMessage() {
  WriteLineToStderr(stream_.str());
}

CheckFailure::CheckFailure(const char* cond, const char* file, int line) {
  stream_ << "[CHECK failed " << Basename(file) << ":" << line << "] " << cond
          << " ";
}

CheckFailure::~CheckFailure() {
  WriteLineToStderr(stream_.str());
  std::abort();
}

}  // namespace internal
}  // namespace iuad
