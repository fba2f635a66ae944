// Versioned run manifests: one self-describing JSON record per bench run.
//
// The manifest is what makes successive runs diffable: it pins the code
// (git SHA), the configuration (SCA_* environment, pool thread count),
// and the run's complete telemetry — the deterministic metrics snapshot,
// the runtime (scheduling/clock-dependent) metrics, the phase wall-times,
// and, when tracing is on, aggregated span edges and the trace path.
//
// Layout (one top-level key per line so plain `diff` works):
//
//   {
//   "schema":"sca-manifest-v2",
//   "bench":"micro_pipeline",
//   "status":"complete",            // "partial" when the run did not finish
//   "git_sha":"<40 hex or unknown>",
//   "threads":8,
//   "env":{"SCA_FAULT_RATE":"0.05","SCA_THREADS":"8"},
//   "metrics":{"counters":{...},"histograms":{...}},
//   "runtime_metrics":{"counters":{...},"gauges":{...},"histograms":{...}},
//   "sketches":{"serve_latency_s":{"count":N,"p50":...,"p90":...,
//               "p99":...,"p999":...,"min":...,"max":...,
//               "sketch":{<QuantileSketch::toJson state>}},...},
//   "phases":{"corpus_build":1.234,...},
//   "span_edges":[{"parent":"","name":"pipeline_once","count":1,
//                  "total_s":1.2},...],
//   "trace":"trace.json"
//   }
//
// "metrics" is the canonical stable section (sorted keys, fixed number
// formatting): byte-identical across SCA_THREADS settings for a
// deterministic workload, which is the contract `sca_cli metrics --stable`
// and the CI smoke step compare. Everything wall-clock lives outside it.
// "sketches" (schema v2) snapshots SketchRegistry::global() — quantile
// summaries plus full mergeable state, so later tooling can re-merge
// manifests; it sits outside the stable section like runtime_metrics.
//
// The file is written with util::atomicWriteFile, and only by
// bench::Session's destructor — a bench killed mid-run leaves the previous
// manifest (or none), never a torn or silently-incomplete one; a bench
// that unwound without reaching Session::complete() writes
// "status":"partial".
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace sca::obs {

struct RunManifestOptions {
  std::string path;  // bench::Session: bench_out/manifest.<bench>.json
  std::string benchName;
  bool complete = false;
  // Why a partial manifest is partial: a signal name ("SIGSEGV"),
  // "watchdog_stall", or "destructor" (session torn down before
  // markComplete). Emitted as "partial_cause" only when !complete, so
  // flight dumps and manifests cross-reference.
  std::string partialCause;
  std::size_t threads = 0;  // caller-supplied (obs sits below runtime)
};

[[nodiscard]] util::Status writeRunManifest(const RunManifestOptions& options);

/// The manifest document writeRunManifest writes, as a string.
[[nodiscard]] std::string runManifestJson(const RunManifestOptions& options);

/// The SHA the manifest/history records pin: SCA_GIT_SHA override, else
/// `git rev-parse HEAD`, else "unknown".
[[nodiscard]] std::string runGitSha();

/// Samples getrusage(RUSAGE_SELF) into runtime max-gauges — peak RSS
/// ("rusage_max_rss_kb") and cumulative user/system CPU seconds
/// ("rusage_user_s"/"rusage_sys_s") — so manifests and history records
/// capture memory and CPU cost, not just wall time. Idempotent: the
/// values are cumulative high-water marks, so repeated calls only raise
/// them.
void recordProcessRusage();

// --- minimal JSON navigation for the sca_cli inspectors -------------------
// These are scanners, not a parser: they understand object/array nesting
// and string escapes, which is all the self-emitted formats above need.

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
