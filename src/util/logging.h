#ifndef IUAD_UTIL_LOGGING_H_
#define IUAD_UTIL_LOGGING_H_

/// \file logging.h
/// Minimal leveled logger. Every IUAD_LOG line is emitted; the level only
/// tags it (there is no runtime threshold).
///
/// Each line carries `[<level> <monotonic seconds> t<thread> file:line]`
/// and is emitted with one write(2) call, so lines from concurrent
/// threads interleave whole — never sheared mid-text (pinned by
/// tests/util_test.cpp). Thread tags are small integers assigned in
/// first-log order, not pthread handles.

#include <sstream>
#include <string>

namespace iuad {

enum class LogLevel { kInfo, kWarning, kError };

namespace internal {

/// Accumulates one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define IUAD_LOG(level)                                                   \
  ::iuad::internal::LogMessage(::iuad::LogLevel::level, __FILE__, __LINE__) \
      .stream()

/// Fatal-on-false invariant check (active in all build types).
#define IUAD_CHECK(cond)                                                  \
  if (cond) {                                                             \
  } else                                                                  \
    ::iuad::internal::CheckFailure(#cond, __FILE__, __LINE__).stream()

namespace internal {

/// Prints the failed condition plus any streamed context, then aborts.
class CheckFailure {
 public:
  CheckFailure(const char* cond, const char* file, int line);
  [[noreturn]] ~CheckFailure();
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace iuad

#endif  // IUAD_UTIL_LOGGING_H_
