// Shared helpers for the table-regeneration benches.
//
// Every bench prints the same row/column structure as the corresponding
// table in the paper and mirrors it into bench_out/<name>.csv so results
// can be diffed across runs. emit() also appends one timing record per
// table to bench_out/bench_times.json (see below), which is the repo's
// perf trajectory: phase wall-times per bench, per run, across PRs.
//
// Both writers are crash-safe (util/io.hpp): CSVs go through temp-file +
// atomic rename, so a killed bench never leaves a torn CSV behind; the
// bench_times.json record is appended with a single O_APPEND write, so
// two benches running concurrently interleave whole lines, never partial
// ones.
//
// bench_times.json format — JSON Lines, one self-contained object per
// emitted table:
//
//   {"bench":"table09_feature_based","threads":8,
//    "phases":{"corpus_build":1.23,"llm_transform":4.56,...},
//    "counters":{"llm_retries":12,"llm_faults_timeout":7,...},
//    "total_s":12.34}
//
// `threads` is the shared pool's worker count (SCA_THREADS or hardware
// concurrency); `phases` accumulates runtime::PhaseTimer scopes since the
// previous emit (concurrent phases sum their per-task wall time, so phase
// seconds can exceed total_s on multi-core hosts); `counters` merges every
// stable AND runtime metrics-registry counter — retry/fault/degradation/
// checkpoint telemetry from the resilience layer and the rt_/ml_/features_
// instrumentation — and is omitted when empty; `total_s` is
// process wall-clock since the previous emit. The file is append-only:
// rerunning a bench adds new lines rather than rewriting history.
//
// Each bench main also holds a Session, which writes the versioned run
// manifest (bench_out/manifest.json, or $SCA_MANIFEST) on exit and
// flushes the $SCA_TRACE Chrome trace. The manifest schema is documented
// in src/obs/manifest.hpp; unlike the per-table bench_times records it is
// run-cumulative (lifetime scope, surviving the per-emit resets) and is
// rewritten atomically per run, not appended. A Session destroyed before
// complete() marks the manifest "status":"partial" so downstream tooling
// never mistakes a crashed run for a finished one.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace sca::bench {

/// RAII run manifest + history record: construct at the top of a bench
/// main, call complete() as the last statement before a successful return.
/// The destructor writes the manifest either way — reaching it without
/// complete() (early return, exception unwind) records a partial run —
/// and appends one sca-history-v1 record to the run-history store so the
/// bench trajectory accumulates across runs (`sca_cli history`).
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

    // Memory/CPU gauges land before the manifest snapshot so both the
    // manifest's runtime section and the history record carry them.
    obs::recordProcessRusage();

    obs::RunManifestOptions options;
    options.benchName = benchName_;
    options.complete = complete_;
    if (!complete_) {
      // Cross-reference the flight recorder: a latched watchdog verdict or
      // signal name beats the generic "torn down early".
      const std::string cause = obs::flight::incidentCause();
      options.partialCause = cause.empty() ? "destructor" : cause;
    }
    options.threads = runtime::globalPool().size();
    if (const char* path = std::getenv("SCA_MANIFEST");
        path != nullptr && *path != '\0') {
      // Explicit override: exactly one file, wherever the caller said.
      options.path = path;
      report(util::atomicWriteFile(options.path,
                                   obs::runManifestJson(options)),
             options.path);
    } else {
      // Per-bench manifest plus a latest-run copy: sequential benches in
      // one sweep no longer clobber each other, so `sca_cli diff` can
      // compare any two of them afterwards.
      const std::string json = obs::runManifestJson(options);
      options.path = "bench_out/manifest." + benchName_ + ".json";
      report(util::atomicWriteFile(options.path, json), options.path);
      report(util::atomicWriteFile("bench_out/manifest.json", json),
             "bench_out/manifest.json");
    }

    const double totalSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    if (const std::string historyPath = obs::configuredHistoryPath();
        !historyPath.empty()) {
      obs::HistoryStore store(historyPath);
      const util::Status status = obs::appendRunHistory(
          store, benchName_, runtime::globalPool().size(), complete_,
          totalSeconds);
      if (status.isOk()) {
        std::cout << "[history] " << historyPath << "\n";
      } else {
        std::cerr << "[history] append failed: " << status.toString()
                  << "\n";
      }
    }
    obs::logEvent(obs::LogLevel::kInfo, "bench", "session_end",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("bench", benchName_);
                    fields.add("status",
                               complete_ ? "complete" : "partial");
                    fields.addDouble("total_s", totalSeconds, 3);
                  });
  }

 private:
  static void report(const util::Status& status, const std::string& path) {
    if (status.isOk()) {
      std::cout << "[manifest] " << path << "\n";
    } else {
      std::cerr << "[manifest] write failed: " << status.toString() << "\n";
    }
  }

  std::string benchName_;
  std::chrono::steady_clock::time_point start_;
  // Arms the flight recorder's fatal-signal handlers (and the stall
  // watchdog when SCA_WATCHDOG_S is set) for the whole bench; destroyed
  // after the destructor body, so the manifest write above still sees any
  // latched incident cause.
  obs::flight::ArmedScope flightScope_;
  bool complete_ = false;
};

namespace detail {

/// Wall-clock anchor for total_s: process start (static init), advanced
/// after every emit so each record covers its own table only.
inline std::chrono::steady_clock::time_point gEmitAnchor =
    std::chrono::steady_clock::now();

/// Builds the phase+counter snapshot as one JSONL record, appends it with
/// a single atomic write, then resets both registries and the wall-clock
/// anchor so the next emit reports its own table only. Counters merge the
/// registry's stable AND runtime sections (names are disjoint): transport
/// work (faults, retries, failovers) is runtime-tagged, and the perf
/// trajectory should show it, not hide it.
inline void appendTimes(const std::string& name) {
  const std::map<std::string, double> phases =
      runtime::PhaseTimes::global().snapshot();
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::global().snapshot();
  std::map<std::string, std::uint64_t> counters = metrics.counters;
  counters.insert(metrics.runtimeCounters.begin(),
                  metrics.runtimeCounters.end());
  const auto now = std::chrono::steady_clock::now();
  const double totalSeconds =
      std::chrono::duration<double>(now - gEmitAnchor).count();

  util::JsonObjectBuilder record;
  record.add("bench", name);
  record.addUint("threads", runtime::globalPool().size());
  util::JsonObjectBuilder phasesJson;
  for (const auto& [phase, seconds] : phases) {
    phasesJson.addDouble(phase, seconds, 3);
  }
  record.addRaw("phases", phasesJson.str());
  if (!counters.empty()) {
    util::JsonObjectBuilder countersJson;
    for (const auto& [key, count] : counters) {
      countersJson.addUint(key, count);
    }
    record.addRaw("counters", countersJson.str());
  }
  record.addDouble("total_s", totalSeconds, 3);

  if (util::appendLine("bench_out/bench_times.json", record.str()).isOk()) {
    std::cout << "[times] bench_out/bench_times.json\n";
  }
  runtime::PhaseTimes::global().reset();
  runtime::Counters::global().reset();
  gEmitAnchor = now;
}

}  // namespace detail

/// Prints the table, atomically writes its CSV next to the binary and
/// appends the telemetry record for everything computed since the
/// previous emit.
inline void emit(const util::TablePrinter& table, const std::string& name) {
  table.print(std::cout);
  const std::string path = "bench_out/" + name + ".csv";
  if (util::atomicWriteFile(path, table.toCsv()).isOk()) {
    std::cout << "[csv] " << path << "\n";
    detail::appendTimes(name);
  }
  std::cout << "\n";
}

/// "93.1"-style percentage cell.
inline std::string pct(double fraction, int decimals = 1) {
  return util::formatDouble(fraction * 100.0, decimals);
}

/// The paper's check/cross marks, in ASCII.
inline std::string mark(bool ok) { return ok ? "v" : "x"; }

}  // namespace sca::bench
