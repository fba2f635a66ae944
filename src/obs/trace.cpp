#include "obs/trace.hpp"

#include <cstdlib>

#include "util/io.hpp"
#include "util/strings.hpp"

// Span, Tracer::snapshotEvents, Tracer::clear and Tracer::currentSpanId
// live in flight.cpp, next to the per-thread record they write and read.

namespace sca::obs {

Tracer::Tracer() {
  if (const char* path = std::getenv("SCA_TRACE");
      path != nullptr && *path != '\0') {
    configuredPath_ = path;
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer& Tracer::global() {
  // Intentionally leaked, like the metrics registry: worker threads may
  // close spans during static teardown.
  static Tracer* instance = new Tracer();
  return *instance;
}

std::uint64_t Tracer::nowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

util::Status Tracer::writeChromeTrace(const std::string& path) const {
  return util::atomicWriteFile(path, chromeTraceJson(snapshotEvents()));
}

namespace {

/// Microseconds with nanosecond resolution, Chrome's expected unit.
std::string formatUs(std::uint64_t ns) {
  return util::formatDouble(static_cast<double>(ns) / 1000.0, 3);
}

}  // namespace

std::string chromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + util::jsonEscape(e.name) + "\",\"cat\":\"" +
           util::jsonEscape(e.category == nullptr ? "phase" : e.category) +
           "\",\"ph\":\"X\",\"ts\":" + formatUs(e.startNs) +
           ",\"dur\":" + formatUs(e.durationNs) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"args\":{\"id\":" + std::to_string(e.id) +
           ",\"parent\":" + std::to_string(e.parentId) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

util::Status flushConfiguredTrace() {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled() || tracer.configuredPath().empty()) {
    return util::Status::ok();
  }
  return tracer.writeChromeTrace(tracer.configuredPath());
}

}  // namespace sca::obs
