#pragma once

// Always-on flight recorder, stall watchdog, and crash forensics.
//
// Every thread that records anything owns one record, never freed, whose
// tid is the thread id the dumps, the Chrome trace and the event log all
// print. It holds a fixed-size overwrite-oldest ring of compact events
// (span begin/end, log records, phases) plus a bounded
// stack of currently-active span names, and, while tracing is on, the
// closed spans obs::Tracer reads (kept until Tracer::clear()). Rings
// are single-writer (the owning thread) and multi-reader (watchdog
// thread, fatal-signal handler, tests); every slot field is a relaxed
// atomic word so concurrent reads are race-free and lock-free, and the
// per-ring head is the release/acquire publication point. What no record
// can keep (a traced span past the per-thread cap, anything on a thread
// past the record table) is counted in the runtime counter
// obs_events_dropped.
//
// The recorder is purely observational: it never touches RNG state,
// stable metrics, or any output byte, so recorder-on runs stay
// byte-identical to recorder-off runs.
//
// Arming (done by bench::Session and `sca_cli serve`) installs
// SIGSEGV/SIGABRT/SIGBUS handlers that serialize the rings as an
// `sca-postmortem-v1` JSONL record using only async-signal-safe
// primitives, and optionally starts a watchdog thread that dumps the
// same record when event flow stops while spans are still active.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sca::obs::flight {

enum class EventKind : std::uint8_t {
  kSpanBegin = 1,
  kSpanEnd = 2,
  kLog = 3,
  kPhase = 4,
};

// Stable text name for an event kind ("span_begin", "log", ...).
const char* eventKindName(std::uint8_t kind) noexcept;

namespace detail {
// One relaxed load; resolved from SCA_FLIGHT_EVENTS at process start.
extern std::atomic<bool> gEnabled;
}  // namespace detail

// True when the recorder is capturing events. Inline so the disabled
// cost at a call site is a single relaxed atomic load.
inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

// Record one event into the calling thread's ring. `name` is truncated
// to the slot width; whatever reads the ring back (snapshot, dumps) sees
// it sanitized to printable ASCII without quotes or backslashes, so dump
// writers can embed it in JSON verbatim. No-op when the recorder is
// disabled.
void note(EventKind kind, std::string_view name, std::uint64_t arg = 0,
          std::uint8_t level = 0);

// Log feed (called by obs::logEvent before its own enabled gate): records
// a kLog event named "component:event" so retries, failovers, ejections
// etc. land in the ring even when SCA_LOG is unset.
void noteLog(std::uint8_t level, std::string_view component,
             std::string_view event);

// The calling thread's record tid, attaching the record on first use (0
// past the record table). The event log stamps it on every line.
std::uint32_t threadId();

// Sum of all ring heads: every recorded event advances it, so it doubles
// as the watchdog's heartbeat epoch.
std::uint64_t progressEpoch() noexcept;

// ---------------------------------------------------------------------------
// Snapshots (tests and the watchdog use this; the signal handler walks the
// rings directly with preallocated buffers instead).

struct SnapshotEvent {
  std::uint64_t tsNs = 0;
  std::uint64_t arg = 0;
  std::uint64_t seq = 0;
  std::uint32_t tid = 0;
  std::uint8_t kind = 0;
  std::uint8_t level = 0;
  std::string name;
};

struct SnapshotActiveSpan {
  std::string name;
  std::uint64_t sinceNs = 0;
};

struct ThreadSnapshot {
  std::uint32_t tid = 0;
  bool exited = false;
  std::uint64_t totalEvents = 0;
  std::vector<SnapshotEvent> events;  // oldest -> newest tail of the ring
  std::vector<SnapshotActiveSpan> activeSpans;  // outermost first
};

std::vector<ThreadSnapshot> snapshot();

// ---------------------------------------------------------------------------
// Arming: watchdog + fatal-signal handlers + dump destination.

struct ArmOptions {
  std::string dir = "bench_out/flight";  // dump directory
  std::string label;                     // bench / command name for the header
  double watchdogSeconds = 0.0;          // <= 0 disables the watchdog thread
  bool installSignalHandlers = true;
};

// dir from SCA_FLIGHT_DIR, watchdogSeconds from SCA_WATCHDOG_S.
ArmOptions armOptionsFromEnv(std::string label);

// Install handlers / start the watchdog. Re-entrant: nested arms are
// counted and only the outermost pair does work. Clears any previous
// incident cause.
void arm(const ArmOptions& options);
void disarm();

class ArmedScope {
 public:
  explicit ArmedScope(const ArmOptions& options) { arm(options); }
  ~ArmedScope() { disarm(); }
  ArmedScope(const ArmedScope&) = delete;
  ArmedScope& operator=(const ArmedScope&) = delete;
};

// "" when the run is healthy; otherwise a signal name ("SIGSEGV"),
// "watchdog_stall", or whatever cause was last latched since arm().
// bench::Session folds this into the run record's `partial_cause` field.
std::string incidentCause();

// Path the watchdog dump / signal postmortem will be written to under the
// currently-armed options ("" when not armed).
std::string watchdogDumpPath();
std::string postmortemPath();

namespace detail {
// SCA_FLIGHT_EVENTS (ring slots; 0 = off, else clamped to 16–65,536) and
// SCA_WATCHDOG_S (seconds; 0 = off, at most 3600). nullopt on anything but
// a plain non-negative number; the env readers then keep the default (256
// slots, watchdog off) and say so on stderr.
std::optional<std::size_t> parseRingCapacity(std::string_view text);
std::optional<double> parseWatchdogSeconds(std::string_view text);

// Test hooks. setEnabledForTest flips the recorder gate (tests restore
// the initial state); ringCapacity reports the resolved per-thread slot
// count; runFatalSignalHandlerForTest executes the real handler body
// (dump + cause latch) without re-raising, so tests can exercise the
// async-signal-safe path in-process.
void setEnabledForTest(bool enabled);
std::size_t ringCapacity() noexcept;
void runFatalSignalHandlerForTest(int signo);
}  // namespace detail

}  // namespace sca::obs::flight
