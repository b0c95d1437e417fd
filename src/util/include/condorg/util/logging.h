// Minimal structured logger.
//
// The simulator injects a clock callback so log lines carry *simulated* time.
// Components log through a named Logger; a global level gate keeps the hot
// path cheap (a single load when logging is off).
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

// Compile-time gate for trace logging on hot paths (the event-dispatch loop,
// GRAM protocol drivers). Logger::log already checks the level before
// formatting, but the check itself plus argument evaluation is measurable in
// the kernel's inner loop, so trace call sites there go through
// CONDORG_LOG_TRACE and compile to nothing unless the build enables them
// (cmake -DCONDORG_TRACE_LOG=ON). Arguments are still type-checked when
// disabled (discarded `if constexpr` branch), just never evaluated.
#ifndef CONDORG_LOG_TRACE_ENABLED
#define CONDORG_LOG_TRACE_ENABLED 0
#endif

#define CONDORG_LOG_TRACE(logger, ...)               \
  do {                                               \
    if constexpr (CONDORG_LOG_TRACE_ENABLED) {       \
      (logger).trace(__VA_ARGS__);                   \
    }                                                \
  } while (false)

namespace condorg::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

std::string_view to_string(LogLevel level);

/// Process-wide logging configuration.
class LogConfig {
 public:
  static LogLevel level() { return level_; }
  static void set_level(LogLevel level) { level_ = level; }

  /// Clock used to stamp log lines (simulated seconds). Defaults to nullptr
  /// (lines stamped "-").
  static void set_clock(std::function<double()> clock);
  static double now_or_nan();

  /// Sink for formatted lines; defaults to stderr.
  static void set_sink(std::function<void(std::string_view)> sink);
  static void emit(std::string_view line);

 private:
  // lint-allow(mutable-global): process-wide log-level config
  static LogLevel level_;
};

/// Named logger handle; cheap to copy.
class Logger {
 public:
  explicit Logger(std::string name) : name_(std::move(name)) {}

  bool enabled(LogLevel level) const { return level >= LogConfig::level(); }

  template <typename... Args>
  void log(LogLevel level, Args&&... args) const {
    if (!enabled(level)) return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    write(level, os.str());
  }

  template <typename... Args>
  void trace(Args&&... args) const {
    log(LogLevel::kTrace, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void debug(Args&&... args) const {
    log(LogLevel::kDebug, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void info(Args&&... args) const {
    log(LogLevel::kInfo, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void warn(Args&&... args) const {
    log(LogLevel::kWarn, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void error(Args&&... args) const {
    log(LogLevel::kError, std::forward<Args>(args)...);
  }

  const std::string& name() const { return name_; }

 private:
  void write(LogLevel level, std::string_view message) const;

  std::string name_;
};

}  // namespace condorg::util
