#include "support/log.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>

namespace monomap {
namespace {

LogLevel initial_level() {
  // MONOMAP_LOG_LEVEL=debug|info|warn|error|off overrides the default, so
  // the solving path can be traced without a recompile or CLI plumbing.
  if (const char* env = std::getenv("MONOMAP_LOG_LEVEL")) {
    return parse_log_level(env);
  }
  return LogLevel::kWarn;
}

const LogLevel g_level = initial_level();

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?????";
}

}  // namespace

LogLevel log_level() { return g_level; }

LogLevel parse_log_level(const std::string& text) {
  std::string lower(text.size(), '\0');
  std::transform(text.begin(), text.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return LogLevel::kWarn;
}

namespace detail {

void log_emit(LogLevel level, const std::string& message) {
  std::cerr << "[monomap " + std::string(level_tag(level)) + "] " + message +
                   '\n';
}

}  // namespace detail
}  // namespace monomap
