#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace speedbal {

/// Log severity; Trace is used for per-event simulator traces and is off by
/// default (it is extremely verbose).
enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4 };

/// Global log threshold; messages below it are dropped. Initialized from the
/// SPEEDBAL_LOG environment variable (trace/debug/info/warn/error) if set,
/// otherwise Warn. Thread-safe to read; set only from single-threaded setup.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Parse a level name ("trace".."error"); nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view name);

class Cli;

/// Apply a simulator tool's `--log-level=LVL` flag, when given; throws
/// std::invalid_argument naming the valid levels for an unknown one.
void apply_log_level_flag(const Cli& cli);

/// Core logging entry point. The full line — wall-clock timestamp, thread
/// id, severity, message — is assembled in one buffer and emitted as a
/// single write(2), so lines from concurrent threads (native balancer,
/// SPMD runtime) never interleave mid-line.
void log_message(LogLevel level, const std::string& msg);

/// Render the line exactly as log_message writes it (including the trailing
/// newline): "HH:MM:SS.mmm [tid] LEVEL message\n". Exposed for tests.
std::string format_log_line(LogLevel level, std::string_view msg);

/// Redirect log output to another file descriptor (tests capture through a
/// pipe); returns the previous fd. Default: 2 (stderr).
int set_log_fd(int fd);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace speedbal

/// Usage: SB_LOG(Info) << "migrated task " << id;
#define SB_LOG(severity)                                            \
  if (::speedbal::LogLevel::severity < ::speedbal::log_level()) {   \
  } else                                                            \
    ::speedbal::detail::LogLine(::speedbal::LogLevel::severity)
