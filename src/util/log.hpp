// Minimal leveled logger.  Experiments run millions of simulated events;
// logging is compiled in but off (Warn) by default so benches stay quiet.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <utility>

namespace drowsy::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Where log lines go.  Receives only messages that passed the level
/// gate; called under an internal mutex, so sinks need no locking of
/// their own (and must not log re-entrantly).
using LogSink = std::function<void(LogLevel, const char* component,
                                   const std::string& message)>;

/// Replace the sink (tests capture lines; daemons ship them to a file).
/// An empty function restores the default: one timestamped line per
/// message to stderr, "2026-08-08T12:00:00Z [WARN ] component message".
void set_log_sink(LogSink sink);

/// printf-style logging entry point.  Prefer the LOG_* macros below.
void log_message(LogLevel level, const char* component, const std::string& message);

namespace detail {
template <typename... Args>
std::string format(const char* fmt, Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return fmt;
  } else {
    const int n = std::snprintf(nullptr, 0, fmt, std::forward<Args>(args)...);
    std::string out(static_cast<std::size_t>(n > 0 ? n : 0), '\0');
    if (n > 0) std::snprintf(out.data(), out.size() + 1, fmt, std::forward<Args>(args)...);
    return out;
  }
}
}  // namespace detail

}  // namespace drowsy::util

/// Log at `level` (a LogLevel enumerator name).  The level is tested
/// before the arguments are evaluated, so a disabled line builds no
/// strings.  One statement, safe under an unbraced if.
#define DROWSY_LOG_AT(level, component, ...)                                          \
  do {                                                                                \
    if (::drowsy::util::LogLevel::level >= ::drowsy::util::log_level()) {             \
      ::drowsy::util::log_message(::drowsy::util::LogLevel::level, component,         \
                                  ::drowsy::util::detail::format(__VA_ARGS__));       \
    }                                                                                 \
  } while (0)

#define DROWSY_LOG_DEBUG(component, ...) DROWSY_LOG_AT(Debug, component, __VA_ARGS__)
#define DROWSY_LOG_INFO(component, ...) DROWSY_LOG_AT(Info, component, __VA_ARGS__)
#define DROWSY_LOG_WARN(component, ...) DROWSY_LOG_AT(Warn, component, __VA_ARGS__)
#define DROWSY_LOG_ERROR(component, ...) DROWSY_LOG_AT(Error, component, __VA_ARGS__)
