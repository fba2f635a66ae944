#include "obs/manifest.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "obs/sketch.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace sca::obs {
namespace {

/// SCA_GIT_SHA override, else `git rev-parse HEAD` (benches run inside the
/// worktree), else "unknown". Never fails the manifest.
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
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : vars) {
    if (!first) out += ',';
    first = false;
    out += '"' + util::jsonEscape(key) + "\":\"" + util::jsonEscape(value) +
           '"';
  }
  out += '}';
  return out;
}

/// Aggregates completed spans into (parent name, name) edges — a flat
/// encoding of the phase tree that cannot recurse on self-nested spans
/// (e.g. parallel_for inside parallel_for).
std::string spanEdgesJson() {
  const std::vector<TraceEvent> events = Tracer::global().snapshotEvents();
  std::map<std::uint64_t, const TraceEvent*> byId;
  for (const TraceEvent& e : events) byId.emplace(e.id, &e);

  struct Edge {
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
  };
  std::map<std::pair<std::string, std::string>, Edge> edges;
  for (const TraceEvent& e : events) {
    const auto parent = byId.find(e.parentId);
    std::string parentName =
        parent == byId.end() ? std::string() : parent->second->name;
    Edge& edge = edges[{std::move(parentName), e.name}];
    ++edge.count;
    edge.totalNs += e.durationNs;
  }

  std::string out = "[";
  bool first = true;
  for (const auto& [key, edge] : edges) {
    if (!first) out += ',';
    first = false;
    out += "{\"parent\":\"" + util::jsonEscape(key.first) + "\",\"name\":\"" +
           util::jsonEscape(key.second) +
           "\",\"count\":" + std::to_string(edge.count) + ",\"total_s\":" +
           util::formatDouble(static_cast<double>(edge.totalNs) / 1e9, 6) +
           '}';
  }
  out += ']';
  return out;
}

/// Gauges under kPhaseGaugePrefix, prefix stripped — the flat phase
/// wall-times, the same keys as the history record's "phases" object.
std::string phasesJson(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, seconds] : snapshot.gauges) {
    if (!util::startsWith(name, kPhaseGaugePrefix)) continue;
    if (!first) out += ',';
    first = false;
    out += '"' +
           util::jsonEscape(name.substr(kPhaseGaugePrefix.size())) + "\":" +
           util::formatDouble(seconds, 6);
  }
  out += '}';
  return out;
}

}  // namespace

std::string runGitSha() { return resolveGitSha(); }

void recordProcessRusage() {
  // CI hook: allocate-and-touch N KB right before sampling, so the RSS
  // regression gate can be proven to catch a memory blow-up the same way
  // SCA_OBS_TEST_DELAY_MS proves the slowdown gate. ru_maxrss is a
  // process-lifetime high-water mark, so touching once is enough; the
  // ballast is freed immediately and never affects what the run computes.
  if (const char* env = std::getenv("SCA_OBS_TEST_BALLAST_KB");
      env != nullptr && *env != '\0') {
    if (const long kb = std::strtol(env, nullptr, 10); kb > 0) {
      const std::size_t bytes = static_cast<std::size_t>(kb) * 1024;
      std::vector<char> ballast(bytes);
      constexpr std::size_t kPage = 4096;
      for (std::size_t i = 0; i < bytes; i += kPage) ballast[i] = 1;
      // Volatile read defeats dead-store elimination of the touch loop.
      volatile char sink = ballast[bytes - 1];
      (void)sink;
    }
  }
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return;
  MetricsRegistry& registry = MetricsRegistry::global();
  // ru_maxrss is kilobytes on Linux. All three are cumulative process
  // totals, so max-gauges make repeated sampling idempotent.
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

std::string runManifestJson(const RunManifestOptions& options) {
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  const Tracer& tracer = Tracer::global();

  std::string out = "{\n";
  out += "\"schema\":\"sca-manifest-v2\",\n";
  out += "\"bench\":\"" + util::jsonEscape(options.benchName) + "\",\n";
  out += std::string("\"status\":\"") +
         (options.complete ? "complete" : "partial") + "\",\n";
  if (!options.complete && !options.partialCause.empty()) {
    out += "\"partial_cause\":\"" + util::jsonEscape(options.partialCause) +
           "\",\n";
  }
  out += "\"git_sha\":\"" + util::jsonEscape(resolveGitSha()) + "\",\n";
  out += "\"threads\":" + std::to_string(options.threads) + ",\n";
  out += "\"env\":" + scaEnvJson() + ",\n";
  out += "\"metrics\":" + stableMetricsJson(snapshot) + ",\n";
  out += "\"runtime_metrics\":" + runtimeMetricsJson(snapshot) + ",\n";
  out += "\"sketches\":" + SketchRegistry::global().sketchesJson() + ",\n";
  out += "\"phases\":" + phasesJson(snapshot);
  if (tracer.enabled()) {
    out += ",\n\"span_edges\":" + spanEdgesJson();
    if (!tracer.configuredPath().empty()) {
      out += ",\n\"trace\":\"" + util::jsonEscape(tracer.configuredPath()) +
             '"';
    }
  }
  out += "\n}\n";
  return out;
}

util::Status writeRunManifest(const RunManifestOptions& options) {
  return util::atomicWriteFile(options.path, runManifestJson(options));
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
