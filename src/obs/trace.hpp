// Span tracer: RAII scopes -> the per-thread flight record -> Chrome
// trace_event JSON.
//
// A Span records name, category, parent linkage (the innermost live traced
// span on the same thread), the thread's record tid and steady-clock
// start/duration in nanoseconds since the tracer epoch. It writes once, to
// its thread's flight record (obs/flight.hpp): begin and end events to the
// ring while the flight recorder is on, and its closed span to the
// record's trace list while tracing is on. The Tracer is a read-only view
// over those lists; writeChromeTrace() renders them as the JSON that
// chrome://tracing and Perfetto load, written crash-safely via
// util::atomicWriteFile. Spans of exited threads stay until clear().
//
// A span in kPhaseCategory is a pipeline phase: at close it adds its wall
// seconds to the registry sum-gauge kPhaseGaugePrefix + name, even with
// both recorders off. Any other span then costs two relaxed loads, so the
// instrumentation can stay in every hot path permanently.
//
// Tracing is off unless the SCA_TRACE environment variable names an
// output path (or a test calls setEnabled). Timestamps are wall-clock and
// therefore excluded from all deterministic output: traces and the run
// record's phase times are diagnostics, never part of the byte-comparable
// metrics section.
//
// A thread keeps at most kMaxEventsPerThread traced spans; overflow drops
// the new span and counts it (obs_events_dropped), so a runaway region
// degrades the trace instead of memory. Names keep their first 40 bytes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace sca::obs {

namespace flight::detail {
struct Record;

/// A span as its thread's record keeps it once closed; `name` is packed in
/// the ring's slot layout.
struct TracedSpan {
  std::uint64_t name[5] = {};
  const char* category = nullptr;
  std::uint64_t startNs = 0;
  std::uint64_t durationNs = 0;
  std::uint64_t id = 0;  // non-zero: traced
  std::uint64_t parentId = 0;
};
}  // namespace flight::detail

/// The category of pipeline phases. Spans are matched by this address, not
/// by text: a span is a phase only when constructed with kPhaseCategory.
inline constexpr char kPhaseCategory[] = "phase";

struct TraceEvent {
  std::string name;
  const char* category = kPhaseCategory;  // static strings only
  std::uint64_t startNs = 0;       // since the tracer epoch (steady clock)
  std::uint64_t durationNs = 0;
  std::uint32_t tid = 0;           // the thread's flight-record tid
  std::uint64_t id = 0;            // unique non-zero span id
  std::uint64_t parentId = 0;      // 0 = root (no enclosing span)
};

class Tracer {
 public:
  static constexpr std::size_t kMaxEventsPerThread = 65536;

  /// The process-global tracer (created on first use, never destroyed).
  [[nodiscard]] static Tracer& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The SCA_TRACE value captured at first use ("" when unset).
  [[nodiscard]] const std::string& configuredPath() const noexcept {
    return configuredPath_;
  }

  /// All traced spans closed since the last clear(), merged and sorted by
  /// (startNs, tid, id).
  [[nodiscard]] std::vector<TraceEvent> snapshotEvents() const;

  /// Drops every traced span.
  void clear();

  /// Steady-clock nanoseconds since the tracer epoch.
  [[nodiscard]] std::uint64_t nowNs() const;

  /// Id of the innermost live traced span on the calling thread (0 =
  /// none). The event log stamps this on every record so log lines can be
  /// joined to the trace they were emitted under.
  [[nodiscard]] static std::uint64_t currentSpanId() noexcept;

  /// Atomically writes the Chrome trace JSON for every event so far.
  [[nodiscard]] util::Status writeChromeTrace(const std::string& path) const;

 private:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::atomic<bool> enabled_{false};
  std::string configuredPath_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span; see the header comment. Span and the Tracer's reads are
/// implemented in flight.cpp, next to the per-thread record they share.
class Span {
 public:
  explicit Span(std::string_view name, const char* category = "span");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing was disabled at construction.
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  flight::detail::Record* record_ = nullptr;  // null: writes no record
  flight::detail::TracedSpan span_;  // what a traced close appends
  Gauge phase_;          // phase spans only
  bool open_ = false;    // timed: a recorder was on, or a phase
  bool ringed_ = false;  // wrote its begin event to the ring
};

/// Renders events as a Chrome trace_event JSON document (ts/dur in
/// microseconds, pid 1, args carrying the span/parent ids).
[[nodiscard]] std::string chromeTraceJson(
    const std::vector<TraceEvent>& events);

/// Writes the trace to the SCA_TRACE path when tracing is enabled and a
/// path is configured; OK no-op otherwise.
[[nodiscard]] util::Status flushConfiguredTrace();

}  // namespace sca::obs
