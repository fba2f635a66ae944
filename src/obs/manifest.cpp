#include "obs/manifest.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace sca::obs {
namespace {

/// SCA_GIT_SHA override, else `git rev-parse HEAD` (benches run inside the
/// worktree), else "unknown". Never fails the record.
std::string resolveGitSha() {
  if (const char* sha = std::getenv("SCA_GIT_SHA");
      sha != nullptr && *sha != '\0') {
    return sha;
  }
  std::string out;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
    ::pclose(pipe);
  }
  std::string sha(util::trim(out));
  const bool hex40 =
      sha.size() == 40 &&
      std::all_of(sha.begin(), sha.end(), [](unsigned char c) {
        return std::isxdigit(c) != 0;
      });
  return hex40 ? sha : "unknown";
}

/// Every SCA_* environment variable, sorted, as one JSON object — the
/// knobs that decide what a run computed.
std::string scaEnvJson() {
  std::map<std::string, std::string> vars;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (!util::startsWith(entry, "SCA_")) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    vars.emplace(entry.substr(0, eq), entry.substr(eq + 1));
  }
  util::JsonObjectBuilder out;
  for (const auto& [key, value] : vars) out.add(key, value);
  return out.str();
}

/// Gauges under kPhaseGaugePrefix, prefix stripped — the flat phase
/// wall-times.
std::string phasesJson(const MetricsSnapshot& snapshot) {
  util::JsonObjectBuilder out;
  for (const auto& [name, seconds] : snapshot.gauges) {
    if (util::startsWith(name, kPhaseGaugePrefix)) {
      out.addDouble(name.substr(kPhaseGaugePrefix.size()), seconds, 6);
    }
  }
  return out.str();
}

/// Samples getrusage(RUSAGE_SELF) into runtime max-gauges: peak RSS
/// ("rusage_max_rss_kb", kilobytes on Linux) and cumulative user/system
/// CPU seconds. All three are process totals, so max-gauges keep a
/// repeated sample idempotent.
void sampleRusage() {
  // CI hook: allocate-and-touch N kB right before sampling, so the RSS
  // regression gate can be shown to catch a memory blow-up the way
  // SCA_OBS_TEST_DELAY_MS shows the slowdown gate. ru_maxrss is a
  // process-lifetime high-water mark, so touching once is enough; the
  // ballast is freed at once and never affects what the run computes.
  if (const std::size_t kb =
          util::envTestHook("SCA_OBS_TEST_BALLAST_KB", 1 << 20);
      kb > 0) {
    const std::size_t bytes = kb * 1024;
    std::vector<char> ballast(bytes);
    constexpr std::size_t kPage = 4096;
    for (std::size_t i = 0; i < bytes; i += kPage) ballast[i] = 1;
    // Volatile read defeats dead-store elimination of the touch loop.
    volatile char sink = ballast[bytes - 1];
    (void)sink;
  }
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return;
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.gauge("rusage_max_rss_kb", GaugeKind::kMax)
      .recordMax(static_cast<double>(usage.ru_maxrss));
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  registry.gauge("rusage_user_s", GaugeKind::kMax)
      .recordMax(seconds(usage.ru_utime));
  registry.gauge("rusage_sys_s", GaugeKind::kMax)
      .recordMax(seconds(usage.ru_stime));
}

std::string renderRunRecord(const FinishedRun& run) {
  sampleRusage();
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  util::JsonObjectBuilder out;
  out.add("schema", kRunRecordSchema);
  out.add("bench", run.bench);
  out.add("status", run.complete ? "complete" : "partial");
  if (!run.complete && !run.partialCause.empty()) {
    out.add("partial_cause", run.partialCause);
  }
  out.add("git_sha", resolveGitSha());
  out.addUint("threads", run.threads);
  out.addDouble("total_s", run.totalSeconds, 6);
  out.addInt("ts", static_cast<long long>(std::time(nullptr)));
  out.addRaw("env", scaEnvJson());
  out.addRaw("metrics", stableMetricsJson(snapshot));
  out.addRaw("runtime_metrics", runtimeMetricsJson(snapshot));
  out.addRaw("sketches", SketchRegistry::global().sketchesJson());
  out.addRaw("phases", phasesJson(snapshot));
  if (const Tracer& tracer = Tracer::global();
      tracer.enabled() && !tracer.configuredPath().empty()) {
    out.add("trace", tracer.configuredPath());
  }
  return out.str() + "\n";
}

/// See RunRecord::envClass.
bool excludedFromEnvClass(std::string_view name) {
  return name == "SCA_MANIFEST" || name == "SCA_TRACE" ||
         name == "SCA_LOG" || name == "SCA_LOG_LEVEL" ||
         name == "SCA_GIT_SHA" || name == "SCA_THREADS" ||
         name == "SCA_OBS_TEST_DELAY_MS" ||
         name == "SCA_OBS_TEST_BALLAST_KB" ||
         name == "SCA_OBS_TEST_STALL_MS" || name == "SCA_FLIGHT_EVENTS" ||
         name == "SCA_FLIGHT_DIR" || name == "SCA_WATCHDOG_S" ||
         util::startsWith(name, "SCA_HISTORY");
}

using Entries = std::vector<std::pair<std::string, std::string>>;

/// Raw JSON string literal -> its text; nullopt when `raw` is no string.
std::optional<std::string> stringValue(std::string_view raw) {
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
    return std::nullopt;
  }
  return util::jsonUnescape(raw.substr(1, raw.size() - 2));
}

std::optional<double> doubleValue(std::string_view raw) {
  double value = 0.0;
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The entries of one raw object through `convert`; false when it is no
/// object or a value does not convert.
template <typename T, typename Convert>
bool objectValues(std::string_view raw, Convert convert,
                  std::map<std::string, T>* out) {
  Entries entries;
  if (!topLevelEntries(raw, &entries)) return false;
  for (const auto& [key, value] : entries) {
    const std::optional<T> converted = convert(value);
    if (!converted) return false;
    out->emplace(key, *converted);
  }
  return true;
}

/// The raw value of `key` among `entries` ("" when absent).
std::string_view entryValue(const Entries& entries, std::string_view key) {
  for (const auto& [name, value] : entries) {
    if (name == key) return value;
  }
  return {};
}

}  // namespace

util::Status writeRunRecord(const FinishedRun& run) {
  const std::string line = renderRunRecord(run);
  util::Status status;
  if (!run.manifestPath.empty()) {
    status = util::atomicWriteFile(run.manifestPath, line);
  }
  if (!run.historyPath.empty()) {
    const util::Status appended = util::appendLine(run.historyPath, line);
    if (status.isOk()) status = appended;
  }
  return status;
}

bool parseRunRecord(std::string_view line, RunRecord* out) {
  *out = RunRecord{};
  Entries entries;
  if (!topLevelEntries(line, &entries) ||
      stringValue(entryValue(entries, "schema")) != kRunRecordSchema) {
    return false;
  }
  const auto sizeValue = [](std::string_view raw) {
    return util::parseSize(raw);
  };
  bool sawBench = false;
  bool sawStatus = false;
  bool sawMetrics = false;
  for (const auto& [key, raw] : entries) {
    bool ok = true;
    if (key == "bench") {
      out->bench = stringValue(raw).value_or("");
      sawBench = !out->bench.empty();
    } else if (key == "status") {
      const std::optional<std::string> status = stringValue(raw);
      out->complete = status == "complete";
      sawStatus = out->complete || status == "partial";
    } else if (key == "partial_cause") {
      out->partialCause = stringValue(raw).value_or("");
    } else if (key == "git_sha") {
      out->gitSha = stringValue(raw).value_or("");
    } else if (key == "threads") {
      const std::optional<std::size_t> threads = util::parseSize(raw);
      ok = threads.has_value();
      out->threads = threads.value_or(0);
    } else if (key == "total_s") {
      const std::optional<double> seconds = doubleValue(raw);
      ok = seconds.has_value();
      out->totalSeconds = seconds.value_or(0.0);
    } else if (key == "env") {
      ok = objectValues<std::string>(raw, stringValue, &out->env);
    } else if (key == "metrics") {
      out->metrics = raw;
      ok = objectValues<std::uint64_t>(extractJsonObject(raw, "counters"),
                                       sizeValue, &out->counters);
      sawMetrics = ok;
    } else if (key == "runtime_metrics") {
      ok = objectValues<std::uint64_t>(extractJsonObject(raw, "counters"),
                                       sizeValue, &out->runtimeCounters) &&
           objectValues<double>(extractJsonObject(raw, "gauges"),
                                doubleValue, &out->gauges);
    } else if (key == "phases") {
      ok = objectValues<double>(raw, doubleValue, &out->phases);
    }
    if (!ok) return false;
  }
  if (!sawBench || !sawStatus || !sawMetrics) return false;

  out->digest = util::toHex64(util::hash64(out->metrics));
  for (const auto& [name, value] : out->env) {
    if (excludedFromEnvClass(name)) continue;
    if (!out->envClass.empty()) out->envClass += ' ';
    out->envClass += name + '=' + value;
  }
  if (const auto rss = out->gauges.find("rusage_max_rss_kb");
      rss != out->gauges.end()) {
    out->maxRssKb = static_cast<std::uint64_t>(rss->second);
  }
  return true;
}

// --- JSON scanners --------------------------------------------------------

namespace {

/// Advances past one JSON value starting at `i` (object, array, string, or
/// scalar token). Returns false on unbalanced/truncated input.
bool skipValue(std::string_view json, std::size_t* i) {
  while (*i < json.size() &&
         std::isspace(static_cast<unsigned char>(json[*i])) != 0) {
    ++*i;
  }
  if (*i >= json.size()) return false;
  const char open = json[*i];
  if (open == '"') {
    ++*i;
    while (*i < json.size()) {
      if (json[*i] == '\\') {
        *i += 2;
        continue;
      }
      if (json[*i] == '"') {
        ++*i;
        return true;
      }
      ++*i;
    }
    return false;  // unterminated string
  }
  if (open == '{' || open == '[') {
    const char close = open == '{' ? '}' : ']';
    int depth = 0;
    while (*i < json.size()) {
      const char c = json[*i];
      if (c == '"') {
        if (!skipValue(json, i)) return false;
        continue;
      }
      if (c == open) ++depth;
      if (c == close && --depth == 0) {
        ++*i;
        return true;
      }
      ++*i;
    }
    return false;  // unbalanced
  }
  // Scalar: run to the next structural character.
  while (*i < json.size() && json[*i] != ',' && json[*i] != '}' &&
         json[*i] != ']' && std::isspace(static_cast<unsigned char>(
                                json[*i])) == 0) {
    ++*i;
  }
  return true;
}

std::string extractValueOfKind(std::string_view json, std::string_view key,
                               char kind) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return "";
  std::size_t i = at + needle.size();
  while (i < json.size() &&
         std::isspace(static_cast<unsigned char>(json[i])) != 0) {
    ++i;
  }
  if (i >= json.size() || json[i] != kind) return "";
  std::size_t end = i;
  if (!skipValue(json, &end)) return "";
  return std::string(json.substr(i, end - i));
}

}  // namespace

std::string extractJsonObject(std::string_view json, std::string_view key) {
  return extractValueOfKind(json, key, '{');
}

std::string extractJsonArray(std::string_view json, std::string_view key) {
  return extractValueOfKind(json, key, '[');
}

bool topLevelEntries(std::string_view objectJson,
                     std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::size_t i = 0;
  while (i < objectJson.size() &&
         std::isspace(static_cast<unsigned char>(objectJson[i])) != 0) {
    ++i;
  }
  if (i >= objectJson.size() || objectJson[i] != '{') return false;
  ++i;
  for (;;) {
    while (i < objectJson.size() &&
           (std::isspace(static_cast<unsigned char>(objectJson[i])) != 0 ||
            objectJson[i] == ',')) {
      ++i;
    }
    if (i < objectJson.size() && objectJson[i] == '}') return true;
    // Key string.
    std::size_t keyBegin = i;
    if (i >= objectJson.size() || objectJson[i] != '"' ||
        !skipValue(objectJson, &i)) {
      return false;
    }
    const std::string key = util::jsonUnescape(
        objectJson.substr(keyBegin + 1, i - keyBegin - 2));
    while (i < objectJson.size() &&
           std::isspace(static_cast<unsigned char>(objectJson[i])) != 0) {
      ++i;
    }
    if (i >= objectJson.size() || objectJson[i] != ':') return false;
    ++i;
    std::size_t valueBegin = i;
    if (!skipValue(objectJson, &i)) return false;
    out->emplace_back(key, std::string(util::trim(objectJson.substr(
                               valueBegin, i - valueBegin))));
  }
}

bool topLevelElements(std::string_view arrayJson,
                      std::vector<std::string>* out) {
  out->clear();
  std::size_t i = 0;
  while (i < arrayJson.size() &&
         std::isspace(static_cast<unsigned char>(arrayJson[i])) != 0) {
    ++i;
  }
  if (i >= arrayJson.size() || arrayJson[i] != '[') return false;
  ++i;
  for (;;) {
    while (i < arrayJson.size() &&
           (std::isspace(static_cast<unsigned char>(arrayJson[i])) != 0 ||
            arrayJson[i] == ',')) {
      ++i;
    }
    if (i < arrayJson.size() && arrayJson[i] == ']') return true;
    if (i >= arrayJson.size()) return false;
    std::size_t begin = i;
    if (!skipValue(arrayJson, &i)) return false;
    out->push_back(
        std::string(util::trim(arrayJson.substr(begin, i - begin))));
  }
}

}  // namespace sca::obs
