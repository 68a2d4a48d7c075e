#include "common/log.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ssin {

namespace {

LogLevel LevelFromEnv() {
  const char* env = std::getenv("SSIN_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return LogLevel::kInfo;
  std::string value(env);
  for (char& c : value) c = static_cast<char>(std::toupper(c));
  if (value == "DEBUG" || value == "0") return LogLevel::kDebug;
  if (value == "INFO" || value == "1") return LogLevel::kInfo;
  if (value == "WARN" || value == "WARNING" || value == "2") {
    return LogLevel::kWarn;
  }
  if (value == "ERROR" || value == "3") return LogLevel::kError;
  std::fprintf(stderr, "[ssin W] unknown SSIN_LOG_LEVEL '%s', using INFO\n",
               env);
  return LogLevel::kInfo;
}

char LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarn:
      return 'W';
    case LogLevel::kError:
      return 'E';
  }
  return '?';
}

}  // namespace

LogLevel MinLogLevel() {
  static const LogLevel env_level = LevelFromEnv();  // Parsed once.
  return env_level;
}

namespace internal {

LogMessage::~LogMessage() {
  std::fprintf(stderr, "[ssin %c] %s\n", LevelTag(level_),
               stream_.str().c_str());
}

}  // namespace internal
}  // namespace ssin
