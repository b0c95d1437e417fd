#include "condorg/util/logging.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace condorg::util {
namespace {

// lint-allow(mutable-global): process-wide log clock, set by the harness
std::function<double()> g_clock;
// lint-allow(mutable-global): process-wide log sink, set by the harness
std::function<void(std::string_view)> g_sink;

void default_sink(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

}  // namespace

LogLevel LogConfig::level_ = LogLevel::kWarn;

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void LogConfig::set_clock(std::function<double()> clock) {
  g_clock = std::move(clock);
}

double LogConfig::now_or_nan() { return g_clock ? g_clock() : std::nan(""); }

void LogConfig::set_sink(std::function<void(std::string_view)> sink) {
  g_sink = std::move(sink);
}

void LogConfig::emit(std::string_view line) {
  if (g_sink) {
    g_sink(line);
  } else {
    default_sink(line);
  }
}

void Logger::write(LogLevel level, std::string_view message) const {
  const double now = LogConfig::now_or_nan();
  char stamp[32];
  if (std::isnan(now)) {
    std::snprintf(stamp, sizeof stamp, "-");
  } else {
    std::snprintf(stamp, sizeof stamp, "%.3f", now);
  }
  std::string line;
  line.reserve(message.size() + name_.size() + 24);
  line.append("[");
  line.append(stamp);
  line.append("] ");
  line.append(to_string(level));
  line.append(" ");
  line.append(name_);
  line.append(": ");
  line.append(message);
  LogConfig::emit(line);
}

}  // namespace condorg::util
