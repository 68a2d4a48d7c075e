#ifndef SSIN_COMMON_LOG_H_
#define SSIN_COMMON_LOG_H_

#include <sstream>

/// \file
/// Minimal leveled logger: `SSIN_LOG(Info) << "epoch " << e;` writes
/// "[ssin I] epoch 3" to stderr as one fprintf (so concurrent threads never
/// interleave mid-line). The minimum level defaults to Info and can be
/// overridden with the SSIN_LOG_LEVEL environment variable (DEBUG, INFO,
/// WARN, ERROR — or 0-3), parsed once at first use. Messages below the
/// minimum level never evaluate their stream arguments.

namespace ssin {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// The effective minimum level (from SSIN_LOG_LEVEL).
LogLevel MinLogLevel();

namespace internal {

/// Stream sink for one log line; flushes to stderr on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace ssin

/// SSIN_LOG(Info) << ...;  — severity is one of Debug, Info, Warn, Error.
/// Same dangling-else construction as SSIN_CHECK: below-threshold messages
/// skip both formatting and the stderr write.
#define SSIN_LOG(severity)                                            \
  if (::ssin::LogLevel::k##severity < ::ssin::MinLogLevel()) {        \
  } else /* NOLINT */                                                 \
    ::ssin::internal::LogMessage(::ssin::LogLevel::k##severity)

#endif  // SSIN_COMMON_LOG_H_
