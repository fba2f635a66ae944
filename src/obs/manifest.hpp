// The run record: one self-describing JSON line per run, schema sca-run-v1.
//
// A run ends with exactly one record. writeRunRecord renders it once and
// writes those bytes twice: atomically to the run's manifest file (what
// `sca_cli metrics` and `sca_cli diff` read) and appended to the run
// history (what `sca_cli history` reads, see history.hpp). So the manifest
// file is byte-identical to the history line of the same run, and
// parseRunRecord is the one reader of both.
//
// Layout (one line; shown wrapped):
//
//   {"schema":"sca-run-v1","bench":"micro_pipeline",
//    "status":"complete",          // "partial" when the run did not finish
//    "git_sha":"<40 hex or unknown>","threads":8,
//    "total_s":1.234567,"ts":1754450000,
//    "env":{"SCA_FAULT_RATE":"0.05","SCA_THREADS":"8"},
//    "metrics":{"counters":{...},"histograms":{...}},
//    "runtime_metrics":{"counters":{...},"gauges":{...},"histograms":{...}},
//    "sketches":{"serve_latency_s":{"count":N,"p50":...,"p90":...,
//                "p99":...,"p999":...,"min":...,"max":...,
//                "sketch":{<QuantileSketch::toJson state>}},...},
//    "phases":{"corpus_build":1.234,...},
//    "trace":"trace.json"}
//
// "partial_cause" follows "status" on a partial run: a signal name
// ("SIGSEGV"), "watchdog_stall", or "destructor" (session torn down
// before complete()), so flight dumps and records cross-reference.
// "trace" is present only when a Chrome trace was written; that file
// carries every span with its parent link.
//
// "metrics" is the canonical stable section (sorted keys, fixed number
// formatting): byte-identical across SCA_THREADS settings for a
// deterministic workload, which is the contract `sca_cli metrics --stable`
// and the CI smokes compare, and its util::hash64 is the run's digest.
// Everything wall-clock lives outside it: the runtime counters, the gauges
// (among them the rusage_max_rss_kb / rusage_user_s / rusage_sys_s sample
// taken as the record is written), the mergeable quantile sketches of
// SketchRegistry::global(), the phase wall-times, total_s and ts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace sca::obs {

inline constexpr std::string_view kRunRecordSchema = "sca-run-v1";

/// What only the caller knows about the run that is ending; the writer
/// samples everything else.
struct FinishedRun {
  std::string bench;
  std::size_t threads = 0;  // caller-supplied (obs sits below runtime)
  bool complete = false;
  std::string partialCause;  // recorded only when !complete
  double totalSeconds = 0.0;
  std::string manifestPath;  // "" = no manifest file
  std::string historyPath;   // "" = no history line
};

/// Ends the run's telemetry: samples getrusage into the rusage_* max
/// gauges, takes one registry snapshot, resolves the git SHA (SCA_GIT_SHA,
/// else `git rev-parse HEAD`, else "unknown") and renders the record once;
/// then writes it atomically to `manifestPath` and appends the same bytes
/// to `historyPath` (one O_APPEND write). Both writes are attempted; the
/// first failure is returned.
[[nodiscard]] util::Status writeRunRecord(const FinishedRun& run);

/// One sca-run-v1 record as read back, plus the fields the history and its
/// regression gate derive from it.
struct RunRecord {
  std::string bench;
  bool complete = false;
  std::string partialCause;
  std::string gitSha;
  std::uint64_t threads = 0;
  double totalSeconds = 0.0;
  std::map<std::string, std::string> env;
  std::string metrics;  // the raw stable section, byte for byte
  std::map<std::string, std::uint64_t> counters;         // metrics
  std::map<std::string, std::uint64_t> runtimeCounters;  // runtime_metrics
  std::map<std::string, double> gauges;                  // runtime_metrics
  std::map<std::string, double> phases;

  // Derived.
  std::string digest;  // util::toHex64(util::hash64(metrics))
  // `env` minus the knobs that cannot change what a run computes or how
  // fast it legitimately runs, as "K=V K=V": output paths (SCA_MANIFEST,
  // SCA_TRACE, SCA_LOG, SCA_LOG_LEVEL, SCA_HISTORY*), SCA_GIT_SHA,
  // SCA_THREADS (its own field), the flight recorder's knobs, and the CI
  // injection hooks SCA_OBS_TEST_DELAY_MS, SCA_OBS_TEST_BALLAST_KB and
  // SCA_OBS_TEST_STALL_MS, which exist so the regression gate can be shown
  // to catch what they inject.
  std::string envClass;
  std::uint64_t maxRssKb = 0;  // the rusage_max_rss_kb gauge; 0 = unsampled
};

/// Parses one record (a trailing newline is fine). False on a torn line, a
/// malformed field or any other schema (`*out` is then unspecified).
[[nodiscard]] bool parseRunRecord(std::string_view line, RunRecord* out);

// --- minimal JSON navigation ---------------------------------------------
// These are scanners, not a parser: they understand object/array nesting
// and string escapes, which is all the self-emitted formats need.

/// The raw `{...}` value of `"key":` at any nesting depth ("" if absent or
/// unbalanced).
[[nodiscard]] std::string extractJsonObject(std::string_view json,
                                            std::string_view key);

/// The raw `[...]` value of `"key":` ("" if absent or unbalanced).
[[nodiscard]] std::string extractJsonArray(std::string_view json,
                                           std::string_view key);

/// Top-level `"key":value` pairs of one object, values as raw text.
/// Returns false (with partial output) on malformed input.
[[nodiscard]] bool topLevelEntries(
    std::string_view objectJson,
    std::vector<std::pair<std::string, std::string>>* out);

/// Top-level elements of one array, as raw text. False on malformed input.
[[nodiscard]] bool topLevelElements(std::string_view arrayJson,
                                    std::vector<std::string>* out);

}  // namespace sca::obs
