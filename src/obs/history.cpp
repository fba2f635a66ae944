#include "obs/history.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::obs {
namespace {

// The fixed gates of checkRegressions (see history.hpp).
constexpr std::size_t kWindow = 5;
constexpr double kFactor = 1.5;
constexpr double kMinDeltaSeconds = 0.05;
constexpr double kMinPhaseSeconds = 0.01;
constexpr double kRssFactor = 1.5;
constexpr double kMinRssDeltaKb = 32 * 1024;

std::string groupKey(const RunRecord& record) {
  return record.bench + "\x1f" + std::to_string(record.threads) + "\x1f" +
         record.envClass;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Every readable record of `content` with its raw line, in file order.
std::vector<std::pair<std::string, RunRecord>> parseLines(
    const std::string& content, std::size_t* skipped) {
  std::vector<std::pair<std::string, RunRecord>> out;
  for (std::string& line : util::split(content, '\n')) {
    if (util::trim(line).empty()) continue;
    RunRecord record;
    if (parseRunRecord(line, &record)) {
      out.emplace_back(std::move(line), std::move(record));
    } else {
      ++*skipped;  // torn tail or foreign line — never fatal
    }
  }
  return out;
}

}  // namespace

HistoryLoad loadHistory(const std::string& path) {
  HistoryLoad result;
  const util::Result<std::string> content = util::readFile(path);
  if (!content.ok()) return result;  // absent file = empty history
  for (auto& [line, record] :
       parseLines(content.value(), &result.skippedLines)) {
    result.records.push_back(std::move(record));
  }
  return result;
}

util::Result<std::size_t> gcHistory(const std::string& path,
                                    std::size_t keepPerGroup) {
  // A history that cannot be read is never rewritten.
  const util::Result<std::string> content = util::readFile(path);
  if (!content.ok()) return content.status();
  std::size_t skipped = 0;
  const std::vector<std::pair<std::string, RunRecord>> lines =
      parseLines(content.value(), &skipped);
  // Newest-first pass marks the keepers; the rewrite preserves file order.
  std::map<std::string, std::size_t> kept;
  std::vector<bool> keep(lines.size(), false);
  for (std::size_t i = lines.size(); i-- > 0;) {
    std::size_t& count = kept[groupKey(lines[i].second)];
    if (count < keepPerGroup) {
      keep[i] = true;
      ++count;
    }
  }
  std::string out;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (keep[i]) {
      out += lines[i].first;
      out += '\n';
    } else {
      ++dropped;
    }
  }
  const util::Status status = util::atomicWriteFile(path, out);
  if (!status.isOk()) return status;
  return dropped;
}

std::string configuredHistoryPath() {
  if (const char* env = std::getenv("SCA_HISTORY");
      env != nullptr && *env != '\0') {
    const std::string value = env;
    if (value == "off" || value == "0") return "";
    return value;
  }
  return "bench_out/history/history.jsonl";
}

RegressionReport checkRegressions(const std::vector<RunRecord>& records,
                                  bool checkDigest) {
  RegressionReport report;
  std::map<std::string, std::vector<const RunRecord*>> groups;
  std::vector<std::string> groupOrder;
  for (const RunRecord& record : records) {
    if (!record.complete) continue;  // crashed runs baseline nothing
    std::vector<const RunRecord*>& group = groups[groupKey(record)];
    if (group.empty()) groupOrder.push_back(groupKey(record));
    group.push_back(&record);
  }

  for (const std::string& key : groupOrder) {
    const std::vector<const RunRecord*>& group = groups[key];
    if (group.size() < 2) {
      ++report.groupsSkipped;
      continue;
    }
    ++report.groupsChecked;
    const RunRecord& current = *group.back();
    const std::size_t baselineBegin =
        group.size() - 1 > kWindow ? group.size() - 1 - kWindow : 0;
    const std::vector<const RunRecord*> baseline(
        group.begin() + static_cast<std::ptrdiff_t>(baselineBegin),
        group.end() - 1);
    const std::string groupLabel =
        "threads=" + std::to_string(current.threads) +
        (current.envClass.empty() ? "" : " env=" + current.envClass);

    // Correctness first: the stable-metric digest of comparable runs must
    // not drift, no matter how fast the run was.
    if (checkDigest && baseline.back()->digest != current.digest) {
      RegressionFinding finding;
      finding.bench = current.bench;
      finding.group = groupLabel;
      finding.kind = "digest";
      finding.detail = "stable-metric digest changed " +
                       baseline.back()->digest + " -> " + current.digest;
      report.findings.push_back(std::move(finding));
    }

    // Perf: every phase of the current run (plus total_s) against the
    // median of the baseline window.
    std::map<std::string, double> currentTimes = current.phases;
    currentTimes.emplace("total_s", current.totalSeconds);
    for (const auto& [phase, seconds] : currentTimes) {
      std::vector<double> history;
      for (const RunRecord* past : baseline) {
        if (phase == "total_s") {
          history.push_back(past->totalSeconds);
        } else if (const auto it = past->phases.find(phase);
                   it != past->phases.end()) {
          history.push_back(it->second);
        }
      }
      if (history.empty()) continue;  // new phase: nothing to compare
      const double base = median(std::move(history));
      if (base < kMinPhaseSeconds) continue;  // sub-noise phase
      if (seconds > base * kFactor && seconds - base > kMinDeltaSeconds) {
        RegressionFinding finding;
        finding.bench = current.bench;
        finding.group = groupLabel;
        finding.kind = "perf";
        finding.phase = phase;
        finding.baseline = base;
        finding.current = seconds;
        finding.detail = phase + " " + util::formatDouble(base, 3) + "s -> " +
                         util::formatDouble(seconds, 3) + "s (" +
                         util::formatDouble(seconds / base, 2) + "x, gate " +
                         util::formatDouble(kFactor, 2) + "x)";
        report.findings.push_back(std::move(finding));
      }
    }

    // Memory: peak RSS against the baseline median, dual-gated like time.
    // A run that got no slower but quietly holds far more memory must fail
    // the same way a slowdown does.
    if (current.maxRssKb > 0) {
      std::vector<double> rssHistory;
      for (const RunRecord* past : baseline) {
        if (past->maxRssKb > 0) {
          rssHistory.push_back(static_cast<double>(past->maxRssKb));
        }
      }
      if (!rssHistory.empty()) {
        const double base = median(std::move(rssHistory));
        const double currentKb = static_cast<double>(current.maxRssKb);
        if (currentKb > base * kRssFactor &&
            currentKb - base > kMinRssDeltaKb) {
          RegressionFinding finding;
          finding.bench = current.bench;
          finding.group = groupLabel;
          finding.kind = "rss";
          finding.baseline = base;
          finding.current = currentKb;
          finding.detail =
              "max_rss_kb " + util::formatDouble(base, 0) + " -> " +
              util::formatDouble(currentKb, 0) + " (" +
              util::formatDouble(currentKb / base, 2) + "x, gate " +
              util::formatDouble(kRssFactor, 2) + "x)";
          report.findings.push_back(std::move(finding));
        }
      }
    }
  }
  return report;
}

}  // namespace sca::obs
