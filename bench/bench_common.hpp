// Shared helpers for the benches (paper_sweep, macro_*, micro_*).
//
// A bench prints each table in the paper's row/column structure and
// mirrors it into bench_out/<name>.csv so results can be diffed across
// runs. CSVs go through util::atomicWriteFile (temp file + rename), so a
// killed bench never leaves a torn CSV behind.
//
// Each bench main also holds a Session, which keeps the run's one
// performance record. On exit it flushes the $SCA_TRACE Chrome trace and
// writes one sca-run-v1 record (src/obs/manifest.hpp): to
// bench_out/manifest.<bench>.json (or $SCA_MANIFEST), and the same bytes
// appended to the run history (bench_out/history/history.jsonl, or
// $SCA_HISTORY; src/obs/history.hpp). A Session destroyed before
// complete() records "status":"partial" so downstream tooling never
// mistakes a crashed run for a finished one.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace sca::bench {

/// RAII run record: construct at the top of a bench main, call complete()
/// as the last statement before a successful return. The destructor writes
/// the record either way; reaching it without complete() (early return,
/// exception unwind) records a partial run.
class Session {
 public:
  explicit Session(std::string benchName)
      : benchName_(std::move(benchName)),
        start_(std::chrono::steady_clock::now()),
        flightScope_(obs::flight::armOptionsFromEnv(benchName_)) {
    obs::logEvent(obs::LogLevel::kInfo, "bench", "session_start",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("bench", benchName_);
                  });
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void complete() noexcept { complete_ = true; }

  ~Session() {
    const util::Status traceStatus = obs::flushConfiguredTrace();
    if (!traceStatus.isOk()) {
      std::cerr << "[trace] write failed: " << traceStatus.toString() << "\n";
    } else if (obs::Tracer::global().enabled()) {
      std::cout << "[trace] " << obs::Tracer::global().configuredPath()
                << "\n";
    }

    obs::FinishedRun run;
    run.bench = benchName_;
    run.threads = runtime::globalPool().size();
    run.complete = complete_;
    if (!complete_) {
      // Cross-reference the flight recorder: a latched watchdog verdict or
      // signal name beats the generic "torn down early".
      const std::string cause = obs::flight::incidentCause();
      run.partialCause = cause.empty() ? "destructor" : cause;
    }
    run.totalSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    const char* manifest = std::getenv("SCA_MANIFEST");
    run.manifestPath = manifest != nullptr && *manifest != '\0'
                           ? manifest
                           : "bench_out/manifest." + benchName_ + ".json";
    run.historyPath = obs::configuredHistoryPath();
    if (const util::Status status = obs::writeRunRecord(run); status.isOk()) {
      std::cout << "[manifest] " << run.manifestPath << "\n";
      if (!run.historyPath.empty()) {
        std::cout << "[history] " << run.historyPath << "\n";
      }
    } else {
      std::cerr << "[record] write failed: " << status.toString() << "\n";
    }
    obs::logEvent(obs::LogLevel::kInfo, "bench", "session_end",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("bench", benchName_);
                    fields.add("status",
                               complete_ ? "complete" : "partial");
                    fields.addDouble("total_s", run.totalSeconds, 3);
                  });
  }

 private:
  std::string benchName_;
  std::chrono::steady_clock::time_point start_;
  // Arms the flight recorder's fatal-signal handlers (and the stall
  // watchdog when SCA_WATCHDOG_S is set) for the whole bench; destroyed
  // after the destructor body, so the record written above still sees any
  // latched incident cause.
  obs::flight::ArmedScope flightScope_;
  bool complete_ = false;
};

/// Prints the table and atomically writes its CSV next to the binary. A
/// failed write is reported on stderr and returns false: the caller ends
/// the run nonzero before complete(), so its manifest says partial.
[[nodiscard]] inline bool emit(const util::TablePrinter& table,
                               const std::string& name) {
  table.print(std::cout);
  const std::string path = "bench_out/" + name + ".csv";
  if (const util::Status s = util::atomicWriteFile(path, table.toCsv());
      !s.isOk()) {
    std::cerr << "[csv] " << path << " write failed: " << s.toString() << "\n";
    return false;
  }
  std::cout << "[csv] " << path << "\n\n";
  return true;
}

/// "93.1"-style percentage cell.
inline std::string pct(double fraction, int decimals = 1) {
  return util::formatDouble(fraction * 100.0, decimals);
}

/// The paper's check/cross marks, in ASCII.
inline std::string mark(bool ok) { return ok ? "v" : "x"; }

}  // namespace sca::bench
