// Structured event log: leveled, span-correlated JSONL diagnostics.
//
// The metrics registry answers "how many"; traces answer "how long"; this
// log answers "what happened, in order" — the retry that fired, the
// breaker that opened, the shard that was ejected, the request that failed
// over. It is the repo's one logger: experiment progress (corpus builds,
// CV folds) and warnings (watchdog stalls, deadline stops) land here too.
// Each event is one self-contained JSON line:
//
//   {"ts_ns":182734,"level":"info","tid":2,"span":"000000020000000d",
//    "component":"llm","event":"retry",
//    "fields":{"attempt":2,"delay_s":1.125,"error":"timeout"}}
//
//   ts_ns      nanoseconds since the tracer epoch (the same clock spans
//              use, so log lines and trace spans share a timeline)
//   tid        the thread's flight-record tid, the same id the Chrome
//              trace and the flight dumps print
//   span       innermost live trace span on the emitting thread as 16 hex
//              chars ("0" * 16 = none) — join key into SCA_TRACE output
//   fields     event-specific payload, omitted when empty
//
// Enabling: SCA_LOG=path names the output file; SCA_LOG_LEVEL is one of
// debug|info|warn|error (default info). Unset SCA_LOG means *zero* hot-path
// overhead: enabledFor() is one relaxed atomic load and every logEvent()
// call site builds its fields lambda only after that check passes — no
// formatting, no allocation, no clock read.
//
// Writing: each record is appended with a single write(2) on an O_APPEND
// descriptor, so concurrent threads (and processes sharing the file)
// interleave whole lines, never partial ones — the same guarantee
// util::appendLine gives the run-history store. Failed writes are counted,
// not thrown: diagnostics must never take down the run they describe.
//
// Determinism: the log observes, it never participates — no RNG draws, no
// branching on log state in computation paths — so every table and stable
// metric is byte-identical with logging on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/flight.hpp"
#include "util/strings.hpp"

namespace sca::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug"/"info"/"warn"/"error" (case-insensitive); fallback on anything
/// else.
[[nodiscard]] LogLevel parseLogLevel(std::string_view text,
                                     LogLevel fallback = LogLevel::kInfo);
[[nodiscard]] std::string_view logLevelName(LogLevel level) noexcept;

class EventLog {
 public:
  /// The process-global log, configured from SCA_LOG / SCA_LOG_LEVEL on
  /// first use (created on first use, never destroyed).
  [[nodiscard]] static EventLog& global();

  /// The one check hot paths pay when logging is off.
  [[nodiscard]] bool enabledFor(LogLevel level) const noexcept {
    return enabled_.load(std::memory_order_relaxed) &&
           static_cast<int>(level) >= minLevel_.load(std::memory_order_relaxed);
  }

  /// Appends one record. `fieldsJson` is a raw JSON object ("" = omit the
  /// "fields" key). Callers normally go through logEvent() below, which
  /// performs the enabledFor gate; write() itself re-checks nothing.
  void write(LogLevel level, std::string_view component,
             std::string_view event, std::string_view fieldsJson);

  /// Re-points the log (tests; "" disables). Closes any open descriptor.
  void configure(std::string path, LogLevel minLevel);

  [[nodiscard]] const std::string& path() const;
  [[nodiscard]] std::uint64_t droppedWrites() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  EventLog();
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  struct Impl;
  Impl* impl_;  // immortal alongside the log
  std::atomic<bool> enabled_{false};
  std::atomic<int> minLevel_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Call-site helper: `fill` receives a JsonObjectBuilder for the event's
/// fields and runs only when the level is enabled — disabled logging costs
/// exactly the enabledFor() load.
template <typename F>
inline void logEvent(LogLevel level, std::string_view component,
                     std::string_view event, F&& fill) {
  // The flight recorder sees every log call site regardless of SCA_LOG, so
  // retries, failovers and ejections land in the crash rings.
  if (flight::enabled()) {
    flight::noteLog(static_cast<std::uint8_t>(level), component, event);
  }
  EventLog& log = EventLog::global();
  if (!log.enabledFor(level)) return;
  util::JsonObjectBuilder fields;
  std::forward<F>(fill)(fields);
  log.write(level, component, event, fields.str());
}

inline void logEvent(LogLevel level, std::string_view component,
                     std::string_view event) {
  if (flight::enabled()) {
    flight::noteLog(static_cast<std::uint8_t>(level), component, event);
  }
  EventLog& log = EventLog::global();
  if (!log.enabledFor(level)) return;
  log.write(level, component, event, {});
}

}  // namespace sca::obs
