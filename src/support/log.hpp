// Minimal levelled logger writing to stderr.
//
// The threshold is read once, at start-up, from MONOMAP_LOG_LEVEL
// (debug|info|warn|error|off; default warn) and never changes, so any
// thread may check it, and a disabled message costs no formatting — the
// benches time the solving path with logging off. Each message reaches
// stderr in one write, so lines from concurrent walks and service workers
// do not interleave mid-line.
#ifndef MONOMAP_SUPPORT_LOG_HPP
#define MONOMAP_SUPPORT_LOG_HPP

#include <sstream>
#include <string>

namespace monomap {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.
LogLevel log_level();

/// Parse "debug"/"info"/"warn"/"error"/"off" (case-insensitive).
LogLevel parse_log_level(const std::string& text);

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}  // namespace detail

}  // namespace monomap

#define MONOMAP_LOG(level, stream_expr)                              \
  do {                                                               \
    if (static_cast<int>(level) >=                                   \
        static_cast<int>(::monomap::log_level())) {                  \
      std::ostringstream monomap_log_os;                             \
      monomap_log_os << stream_expr;                                 \
      ::monomap::detail::log_emit(level, monomap_log_os.str());      \
    }                                                                \
  } while (false)

#define MONOMAP_DEBUG(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kDebug, stream_expr)
#define MONOMAP_INFO(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kInfo, stream_expr)
#define MONOMAP_WARN(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kWarn, stream_expr)
#define MONOMAP_ERROR(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kError, stream_expr)

#endif  // MONOMAP_SUPPORT_LOG_HPP
