// Minimal leveled logger. The simulator is a library, so logging is off by
// default and routed through a single sink that tests can capture.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace hhpim {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global logger configuration. Not thread-safe by design: the simulator is
/// single-threaded per Processor, and benches configure logging
/// before running.
class Log {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static void set_level(LogLevel level);
  static LogLevel level();
  /// Replaces the output sink (default writes to stderr). Pass nullptr to restore.
  static void set_sink(Sink sink);

  static void write(LogLevel level, const std::string& msg);

  [[nodiscard]] static const char* level_name(LogLevel level);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Log::write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace hhpim

#define HHPIM_LOG(lvl)                                                   \
  if (static_cast<int>(lvl) < static_cast<int>(::hhpim::Log::level())) { \
  } else                                                                 \
    ::hhpim::detail::LogLine(lvl)

#define HHPIM_DEBUG() HHPIM_LOG(::hhpim::LogLevel::kDebug)
#define HHPIM_INFO() HHPIM_LOG(::hhpim::LogLevel::kInfo)
#define HHPIM_WARN() HHPIM_LOG(::hhpim::LogLevel::kWarn)
#define HHPIM_ERROR() HHPIM_LOG(::hhpim::LogLevel::kError)
