#include "obs/history.hpp"

#include <algorithm>
#include <cstdlib>
#include <ctime>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace sca::obs {
namespace {

/// Raw top-level value -> unquoted string ("" when not a string).
std::string unquote(const std::string& raw) {
  if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
    return util::jsonUnescape(
        std::string_view(raw).substr(1, raw.size() - 2));
  }
  return "";
}

double toDouble(const std::string& raw) {
  return std::strtod(raw.c_str(), nullptr);
}

std::uint64_t toUint(const std::string& raw) {
  return std::strtoull(raw.c_str(), nullptr, 10);
}

/// env vars that never change what a run computes or how fast it
/// legitimately runs: output redirections, the git-SHA override, the
/// thread count (its own record field) and the CI slowdown-injection hook.
bool excludedFromEnvClass(std::string_view name) {
  return name == "SCA_MANIFEST" || name == "SCA_TRACE" ||
         name == "SCA_LOG" || name == "SCA_LOG_LEVEL" ||
         name == "SCA_GIT_SHA" || name == "SCA_THREADS" ||
         name == "SCA_OBS_TEST_DELAY_MS" ||
         name == "SCA_OBS_TEST_BALLAST_KB" ||  // CI RSS-injection hook
         name == "SCA_OBS_TEST_STALL_MS" ||    // CI watchdog-wedge hook
         name == "SCA_FLIGHT_EVENTS" || name == "SCA_FLIGHT_DIR" ||
         name == "SCA_WATCHDOG_S" ||  // flight recorder: observational only
         util::startsWith(name, "SCA_HISTORY");
}

std::string groupKey(const HistoryRecord& record) {
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

}  // namespace

std::string historyRecordJson(const HistoryRecord& record) {
  util::JsonObjectBuilder out;
  out.add("bench", record.bench);
  out.add("status", record.complete ? "complete" : "partial");
  out.add("git_sha", record.gitSha);
  out.addUint("threads", record.threads);
  out.add("env_class", record.envClass);
  out.add("digest", record.digest);
  out.addDouble("total_s", record.totalSeconds, 6);
  out.addUint("max_rss_kb", record.maxRssKb);
  out.addDouble("user_s", record.userCpuSeconds, 6);
  out.addDouble("sys_s", record.sysCpuSeconds, 6);
  out.addInt("ts", record.unixTime);
  util::JsonObjectBuilder phases;
  for (const auto& [name, seconds] : record.phases) {
    phases.addDouble(name, seconds, 6);
  }
  out.addRaw("phases", phases.str());
  util::JsonObjectBuilder counters;
  for (const auto& [name, count] : record.counters) {
    counters.addUint(name, count);
  }
  out.addRaw("counters", counters.str());
  return out.str();
}

bool parseHistoryRecord(std::string_view line, HistoryRecord* out) {
  *out = HistoryRecord{};
  std::vector<std::pair<std::string, std::string>> entries;
  if (!topLevelEntries(line, &entries)) return false;
  bool sawBench = false;
  bool sawDigest = false;
  bool sawStatus = false;
  for (const auto& [key, raw] : entries) {
    if (key == "bench") {
      out->bench = unquote(raw);
      sawBench = !out->bench.empty();
    } else if (key == "status") {
      const std::string status = unquote(raw);
      out->complete = status == "complete";
      sawStatus = status == "complete" || status == "partial";
    } else if (key == "git_sha") {
      out->gitSha = unquote(raw);
    } else if (key == "threads") {
      out->threads = toUint(raw);
    } else if (key == "env_class") {
      out->envClass = unquote(raw);
    } else if (key == "digest") {
      out->digest = unquote(raw);
      sawDigest = out->digest.size() == 16;
    } else if (key == "total_s") {
      out->totalSeconds = toDouble(raw);
    } else if (key == "max_rss_kb") {
      out->maxRssKb = toUint(raw);
    } else if (key == "user_s") {
      out->userCpuSeconds = toDouble(raw);
    } else if (key == "sys_s") {
      out->sysCpuSeconds = toDouble(raw);
    } else if (key == "ts") {
      out->unixTime = static_cast<long long>(toUint(raw));
    } else if (key == "phases") {
      std::vector<std::pair<std::string, std::string>> inner;
      if (!topLevelEntries(raw, &inner)) return false;
      for (const auto& [phase, value] : inner) {
        out->phases.emplace(phase, toDouble(value));
      }
    } else if (key == "counters") {
      std::vector<std::pair<std::string, std::string>> inner;
      if (!topLevelEntries(raw, &inner)) return false;
      for (const auto& [counter, value] : inner) {
        out->counters.emplace(counter, toUint(value));
      }
    }
  }
  return sawBench && sawDigest && sawStatus;
}

util::Status HistoryStore::append(const HistoryRecord& record) {
  const util::Result<std::string> existing = util::readFile(path_);
  if (!existing.ok() || existing.value().empty()) {
    util::JsonObjectBuilder header;
    header.add("magic", kHistoryMagic);
    const util::Status status = util::appendLine(path_, header.str());
    if (!status.isOk()) return status;
  }
  return util::appendLine(path_, historyRecordJson(record));
}

HistoryStore::LoadResult HistoryStore::load() const {
  LoadResult result;
  const util::Result<std::string> content = util::readFile(path_);
  if (!content.ok()) return result;  // absent file = empty history

  const std::vector<std::string> lines = util::split(content.value(), '\n');
  bool headerSeen = false;
  for (const std::string& line : lines) {
    if (util::trim(line).empty()) continue;
    std::string magic;
    if (util::jsonStringField(line, "magic", &magic)) {
      if (!headerSeen) {
        if (magic != kHistoryMagic) return result;  // foreign file: empty
        headerSeen = true;
        result.magicOk = true;
      }
      // Duplicate headers (two processes racing the first append) are
      // harmless; ignore without counting them as corruption.
      continue;
    }
    if (!headerSeen) return result;  // data before any magic: not ours
    HistoryRecord record;
    if (parseHistoryRecord(line, &record)) {
      result.records.push_back(std::move(record));
    } else {
      ++result.skippedLines;  // torn tail or foreign line — never fatal
    }
  }
  return result;
}

util::Result<std::size_t> HistoryStore::gc(std::size_t keepPerGroup) {
  const LoadResult loaded = load();
  // Newest-first pass marks the keepers; the rewrite preserves file order.
  std::map<std::string, std::size_t> kept;
  std::vector<bool> keep(loaded.records.size(), false);
  for (std::size_t i = loaded.records.size(); i-- > 0;) {
    std::size_t& count = kept[groupKey(loaded.records[i])];
    if (count < keepPerGroup) {
      keep[i] = true;
      ++count;
    }
  }
  util::JsonObjectBuilder header;
  header.add("magic", kHistoryMagic);
  std::string out = header.str() + "\n";
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    if (keep[i]) {
      out += historyRecordJson(loaded.records[i]);
      out += '\n';
    } else {
      ++dropped;
    }
  }
  const util::Status status = util::atomicWriteFile(path_, out);
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

std::string currentEnvClass() {
  std::map<std::string, std::string> vars;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (!util::startsWith(entry, "SCA_")) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view name = entry.substr(0, eq);
    if (excludedFromEnvClass(name)) continue;
    vars.emplace(name, entry.substr(eq + 1));
  }
  std::string out;
  for (const auto& [name, value] : vars) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += value;
  }
  return out;
}

util::Status appendRunHistory(HistoryStore& store,
                              const std::string& benchName,
                              std::size_t threads, bool complete,
                              double totalSeconds) {
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();

  HistoryRecord record;
  record.bench = benchName;
  record.complete = complete;
  record.gitSha = runGitSha();
  record.threads = threads;
  record.envClass = currentEnvClass();
  record.digest = util::toHex64(util::hash64(stableMetricsJson(snapshot)));
  record.totalSeconds = totalSeconds;
  record.unixTime = static_cast<long long>(std::time(nullptr));
  for (const auto& [name, value] : snapshot.gauges) {
    if (util::startsWith(name, kPhaseGaugePrefix)) {
      record.phases.emplace(name.substr(kPhaseGaugePrefix.size()), value);
    } else if (name == "rusage_max_rss_kb") {
      record.maxRssKb = static_cast<std::uint64_t>(value);
    } else if (name == "rusage_user_s") {
      record.userCpuSeconds = value;
    } else if (name == "rusage_sys_s") {
      record.sysCpuSeconds = value;
    }
  }
  record.counters = snapshot.counters;
  record.counters.insert(snapshot.runtimeCounters.begin(),
                         snapshot.runtimeCounters.end());
  return store.append(record);
}

RegressionReport checkRegressions(const std::vector<HistoryRecord>& records,
                                  const RegressionPolicy& policy) {
  RegressionReport report;
  std::map<std::string, std::vector<const HistoryRecord*>> groups;
  std::vector<std::string> groupOrder;
  for (const HistoryRecord& record : records) {
    if (!record.complete) continue;  // crashed runs baseline nothing
    std::vector<const HistoryRecord*>& group = groups[groupKey(record)];
    if (group.empty()) groupOrder.push_back(groupKey(record));
    group.push_back(&record);
  }

  for (const std::string& key : groupOrder) {
    const std::vector<const HistoryRecord*>& group = groups[key];
    if (group.size() < policy.minBaselineRuns + 1) {
      ++report.groupsSkipped;
      continue;
    }
    ++report.groupsChecked;
    const HistoryRecord& current = *group.back();
    const std::size_t baselineBegin =
        group.size() - 1 > policy.window ? group.size() - 1 - policy.window
                                         : 0;
    const std::vector<const HistoryRecord*> baseline(
        group.begin() + static_cast<std::ptrdiff_t>(baselineBegin),
        group.end() - 1);
    const std::string groupLabel =
        "threads=" + std::to_string(current.threads) +
        (current.envClass.empty() ? "" : " env=" + current.envClass);

    // Correctness first: the stable-metric digest of comparable runs must
    // not drift, no matter how fast the run was.
    if (policy.checkDigest && baseline.back()->digest != current.digest) {
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
      for (const HistoryRecord* past : baseline) {
        if (phase == "total_s") {
          history.push_back(past->totalSeconds);
        } else if (const auto it = past->phases.find(phase);
                   it != past->phases.end()) {
          history.push_back(it->second);
        }
      }
      if (history.empty()) continue;  // new phase: nothing to compare
      const double base = median(std::move(history));
      if (base < policy.minPhaseSeconds) continue;  // sub-noise phase
      if (seconds > base * policy.factor &&
          seconds - base > policy.minDeltaSeconds) {
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
                         util::formatDouble(policy.factor, 2) + "x)";
        report.findings.push_back(std::move(finding));
      }
    }

    // Memory: peak RSS against the baseline median, dual-gated like time.
    // A run that got no slower but quietly holds far more memory must fail
    // the same way a slowdown does.
    if (current.maxRssKb > 0) {
      std::vector<double> rssHistory;
      for (const HistoryRecord* past : baseline) {
        if (past->maxRssKb > 0) {
          rssHistory.push_back(static_cast<double>(past->maxRssKb));
        }
      }
      if (!rssHistory.empty()) {
        const double base = median(std::move(rssHistory));
        const double currentKb = static_cast<double>(current.maxRssKb);
        if (currentKb > base * policy.rssFactor &&
            currentKb - base > static_cast<double>(policy.minRssDeltaKb)) {
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
              util::formatDouble(policy.rssFactor, 2) + "x)";
          report.findings.push_back(std::move(finding));
        }
      }
    }
  }
  return report;
}

}  // namespace sca::obs
