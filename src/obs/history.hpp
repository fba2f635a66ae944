// Cross-run performance history: the repo's memory of how fast it ran.
//
// The manifest file holds ONE run's record and is rewritten each time; the
// history keeps every run. Every run's writeRunRecord (manifest.hpp)
// appends its sca-run-v1 line to an append-only JSONL file, and the
// regression detector baselines the newest record of each comparable group
// against the median of its predecessors — so `sca_cli history check`
// (wired into tools/ci.sh) turns "it got slower" and "it computes
// something different" from anecdotes into exit codes.
//
// File: default bench_out/history/history.jsonl, override with
// SCA_HISTORY=path; SCA_HISTORY=off disables. One record per line, each
// naming its own schema; there is no header.
//
// Crash safety: every record lands with one util::appendLine O_APPEND
// write, so concurrent runs interleave whole lines and a kill can tear at
// most the final line. A line that does not parse as sca-run-v1 (a torn
// tail, or a line of an older format) is skipped and counted, never fatal.
//
// Comparability: records only baseline each other within a group of equal
// (bench, threads, env_class); see RunRecord::envClass.
//
// Determinism: a record's digest is util::hash64 of its canonical stable
// metrics, so a digest change means the run computed different results — a
// correctness regression, which the detector flags regardless of timing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "util/status.hpp"

namespace sca::obs {

struct HistoryLoad {
  std::vector<RunRecord> records;  // file order
  std::size_t skippedLines = 0;    // torn or foreign lines (never fatal)
};

/// Corruption-tolerant read of the whole history; an absent file reads as
/// empty.
[[nodiscard]] HistoryLoad loadHistory(const std::string& path);

/// Atomically rewrites the history keeping only the raw lines of the newest
/// `keepPerGroup` records of every (bench, threads, env_class) group, in
/// file order; unreadable lines go too. Returns the number of records
/// dropped, or the read error of a missing or unreadable file (which is
/// left as it is).
[[nodiscard]] util::Result<std::size_t> gcHistory(const std::string& path,
                                                  std::size_t keepPerGroup);

/// Resolved history path: SCA_HISTORY when set ("off"/"0" -> "" = history
/// disabled), else "bench_out/history/history.jsonl".
[[nodiscard]] std::string configuredHistoryPath();

// --- regression detection -------------------------------------------------

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
/// median of up to 5 preceding complete records (partial runs baseline
/// nothing). The gates are fixed:
///   * time: a phase or total_s is a "perf" finding when it exceeds the
///     baseline median by 1.5x AND by 0.05 s; phases whose median is under
///     0.01 s are noise and never checked;
///   * memory: max_rss_kb is an "rss" finding when it exceeds the median by
///     1.5x AND by 32 MiB (records without an RSS sample take no part);
///   * correctness: when `checkDigest`, a digest that differs from the most
///     recent baseline's is always a "digest" finding, however fast the run.
[[nodiscard]] RegressionReport checkRegressions(
    const std::vector<RunRecord>& records, bool checkDigest = true);

}  // namespace sca::obs
