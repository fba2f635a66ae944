// Cross-run performance history: the repo's memory of how fast it ran.
//
// The run manifest (manifest.hpp) captures ONE run and is rewritten each
// time; this store keeps every run. bench::Session appends one compact
// record per bench run to an append-only JSONL file, and the regression
// detector baselines the newest record of each comparable group against
// the median of its predecessors — so `sca_cli history check` (wired into
// tools/ci.sh) turns "it got slower" and "it computes something different"
// from anecdotes into exit codes.
//
// File layout (default bench_out/history/history.jsonl, override with
// SCA_HISTORY=path; SCA_HISTORY=off disables):
//
//   {"magic":"sca-history-v1"}
//   {"bench":"micro_pipeline","status":"complete","git_sha":"<40 hex>",
//    "threads":8,"env_class":"SCA_FAULT_RATE=0.05 SCA_PIPELINE_ONCE=1",
//    "digest":"<16 hex>","total_s":1.234,"max_rss_kb":51240,
//    "user_s":3.21,"sys_s":0.12,"ts":1754450000,
//    "phases":{"corpus_build":0.102,...},"counters":{"llm_retries":3,...}}
//   ...
//
// Crash safety: the header and every record land with one util::appendLine
// O_APPEND write each, so concurrent benches
// interleave whole lines and a kill can tear at most the final line —
// which load() skips (counted, not fatal). A wrong or missing magic means
// the file is not ours: the history reads as empty rather than guessing.
//
// Comparability: records only baseline each other within a group of equal
// (bench, threads, env_class). env_class is the sorted SCA_* environment
// minus the knobs that cannot change what a run computes or how fast it
// legitimately runs: output paths (SCA_MANIFEST/SCA_TRACE/SCA_LOG*,
// SCA_HISTORY*), SCA_GIT_SHA, SCA_THREADS (its own field) — and the CI
// injection hooks SCA_OBS_TEST_DELAY_MS (slowdown) and
// SCA_OBS_TEST_BALLAST_KB (peak-RSS inflation), which exist precisely so
// the detector can be proven to catch what they inject.
//
// Determinism: every field except the wall-time/rusage/timestamp ones is
// byte-deterministic for a fixed seed and environment; "digest" is
// util::hash64 of the manifest's canonical stable-metrics JSON, so a
// digest change means the run computed different results — a correctness
// regression, which the detector always flags regardless of thresholds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace sca::obs {

inline constexpr std::string_view kHistoryMagic = "sca-history-v1";

struct HistoryRecord {
  std::string bench;
  bool complete = false;
  std::string gitSha;
  std::uint64_t threads = 0;
  std::string envClass;
  std::string digest;  // 16 hex chars (util::hash64 of stable metrics JSON)
  double totalSeconds = 0.0;
  std::uint64_t maxRssKb = 0;
  double userCpuSeconds = 0.0;
  double sysCpuSeconds = 0.0;
  long long unixTime = 0;
  std::map<std::string, double> phases;
  std::map<std::string, std::uint64_t> counters;
};

/// One record as its canonical JSONL line (no trailing newline). Sorted
/// maps and fixed formatting keep equal records byte-equal.
[[nodiscard]] std::string historyRecordJson(const HistoryRecord& record);

/// Parses one line previously produced by historyRecordJson. False on a
/// torn or foreign line (`*out` is then unspecified).
[[nodiscard]] bool parseHistoryRecord(std::string_view line,
                                      HistoryRecord* out);

class HistoryStore {
 public:
  explicit HistoryStore(std::string path) : path_(std::move(path)) {}

  /// Appends one record (writing the magic header first when the file is
  /// missing or empty). Each line is a single O_APPEND write.
  [[nodiscard]] util::Status append(const HistoryRecord& record);

  struct LoadResult {
    std::vector<HistoryRecord> records;
    bool magicOk = false;        // false: absent/foreign file, records empty
    std::size_t skippedLines = 0;  // torn/unparseable lines (never fatal)
  };
  /// Corruption-tolerant read of the whole history.
  [[nodiscard]] LoadResult load() const;

  /// Atomically rewrites the file keeping only the newest `keepPerGroup`
  /// records of every (bench, threads, env_class) group, order preserved.
  /// Returns the number of records dropped.
  [[nodiscard]] util::Result<std::size_t> gc(std::size_t keepPerGroup);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Resolved history path: SCA_HISTORY when set ("off"/"0" -> "" = history
/// disabled), else "bench_out/history/history.jsonl".
[[nodiscard]] std::string configuredHistoryPath();

/// The comparability key of the current environment (see file comment).
[[nodiscard]] std::string currentEnvClass();

/// Builds the record for the run that just finished — registry lifetime
/// snapshot (phases, counters, rusage gauges), git SHA, env class, stable
/// digest — and appends it to `store`. Called by bench::Session's
/// destructor after the manifest write.
[[nodiscard]] util::Status appendRunHistory(HistoryStore& store,
                                            const std::string& benchName,
                                            std::size_t threads,
                                            bool complete,
                                            double totalSeconds);

// --- regression detection -------------------------------------------------

struct RegressionPolicy {
  std::size_t window = 5;        // baseline = median of last K comparable runs
  double factor = 1.5;           // flag when current > median * factor ...
  double minDeltaSeconds = 0.05;  // ... and current - median > this slack
  double minPhaseSeconds = 0.01;  // phases with a smaller median are noise
  std::size_t minBaselineRuns = 1;
  bool checkDigest = true;  // stable-digest changes always hard-fail
  // Peak-RSS gate (same dual-threshold shape as the time gate): flag when
  // current max_rss_kb exceeds the baseline median by the relative factor
  // AND by the absolute slack. Records without rusage (max_rss_kb == 0)
  // neither baseline nor trigger it.
  double rssFactor = 1.5;
  std::uint64_t minRssDeltaKb = 32 * 1024;
};

struct RegressionFinding {
  std::string bench;
  std::string group;  // "threads=8 env=..." for the report
  std::string kind;   // "perf" | "digest" | "rss"
  std::string phase;  // phase name or "total_s"; "" for digest/rss findings
  double baseline = 0.0;
  double current = 0.0;
  std::string detail;
};

struct RegressionReport {
  std::vector<RegressionFinding> findings;
  std::size_t groupsChecked = 0;
  std::size_t groupsSkipped = 0;  // too few comparable complete runs
  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// Checks the newest complete record of every comparable group against the
/// median of up to `policy.window` preceding complete records. Perf
/// findings need both the relative factor and the absolute slack exceeded
/// (noise tolerance); a digest mismatch against the most recent baseline
/// is always a finding — correctness outranks speed.
[[nodiscard]] RegressionReport checkRegressions(
    const std::vector<HistoryRecord>& records, const RegressionPolicy& policy);

}  // namespace sca::obs
