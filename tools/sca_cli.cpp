// sca_cli — command-line front end for the library.
//
//   sca_cli generate <challenge-id> [year] [seed]   emit LLM code
//   sca_cli transform <file.cpp> [year] [seed]      one GPT(.) rewrite
//   sca_cli inspect <file.cpp>                      inferred style profile
//   sca_cli train <model.txt> [year] [authors]      train + save an oracle
//   sca_cli attribute <model.txt> <file.cpp>        predict the author
//   sca_cli evade <model.txt> <file.cpp> <author>   style-space evasion
//   sca_cli challenges                              list the catalogue
//   sca_cli metrics <manifest.json> [--stable]      inspect a run record
//   sca_cli diff <manifestA> <manifestB>            compare two run records
//   sca_cli trace <trace.json> [--summary]          summarize a Chrome trace
//   sca_cli history list|check|gc [path]            cross-run perf history
//   sca_cli serve                                   JSONL serving loop on
//                                                   stdin/stdout
//   sca_cli serve-report <log> [--slowest N]        per-request lifecycle
//                                                   report from an SCA_LOG
//   sca_cli postmortem <file> [--events N]          render a flight-
//                                                   recorder dump
//
// No arguments (or `help`) prints the full usage listing and exits 0; an
// unknown subcommand, or a numeric argument that is not a whole number in
// range (util::parseSize), prints the same listing to stderr and exits 2.
//
// Every command flushes the $SCA_TRACE Chrome trace on exit, so any
// invocation can be profiled: SCA_TRACE=t.json sca_cli train ...
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "corpus/dataset.hpp"
#include "evasion/evasion.hpp"
#include "llm/synthetic_llm.hpp"
#include "obs/flight.hpp"
#include "obs/flight_report.hpp"
#include "obs/history.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "style/archetypes.hpp"
#include "style/infer.hpp"
#include "util/strings.hpp"

namespace {

using namespace sca;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void printUsage(std::ostream& out) {
  out <<
      "usage: sca_cli <command> [args]\n"
      "\n"
      "  generate <challenge-id> [year] [seed]     emit LLM code\n"
      "  transform <file.cpp> [year] [seed]        one GPT(.) rewrite\n"
      "  inspect <file.cpp>                        inferred style profile\n"
      "  train <model.txt> [year] [authors]        train + save an oracle\n"
      "  attribute <model.txt> <file.cpp>          predict the author\n"
      "  evade <model.txt> <file.cpp> <author-id>  style-space evasion\n"
      "  challenges                                list the catalogue\n"
      "  metrics <manifest.json> [--stable]        inspect an sca-run-v1\n"
      "                                            run record\n"
      "  diff <manifestA> <manifestB>              compare two run records\n"
      "                              (exit 0 iff stable metrics byte-equal)\n"
      "  trace <trace.json> [--summary [--top N]]  summarize a Chrome trace\n"
      "                              (--summary: self-time hotspots and the\n"
      "                               critical path)\n"
      "  history list|check|gc [path] [--keep N] [--no-digest]\n"
      "                              cross-run perf history; default path\n"
      "                              $SCA_HISTORY or\n"
      "                              bench_out/history/history.jsonl; check\n"
      "                              gates time and peak RSS at 1.5x the\n"
      "                              median of the last 5 comparable runs\n"
      "                              (and +0.05 s / +32 MiB) and the stable\n"
      "                              digest; gc keeps N per group (20)\n"
      "  serve                       JSONL serving loop on stdin/stdout\n"
      "                              over a sharded LLM fleet (SCA_SHARDS,\n"
      "                              SCA_FAULT_RATE, SCA_SERVE_QUEUE,\n"
      "                              SCA_SERVE_BATCH, SCA_SERVE_BURST,\n"
      "                              SCA_SERVE_DEADLINE_S, SCA_SERVE_TIMING;\n"
      "                              schema in src/serve/protocol.hpp)\n"
      "  serve-report <log> [--slowest N]\n"
      "                              reconstruct per-request lifecycles\n"
      "                              from a structured event log (SCA_LOG):\n"
      "                              slowest-N requests and per-op SLO\n"
      "                              table\n"
      "  postmortem <file> [--events N]\n"
      "                              reconstruct an sca-postmortem-v1\n"
      "                              flight-recorder dump (watchdog stall\n"
      "                              or fatal-signal crash): suspected\n"
      "                              stall site, per-thread active spans\n"
      "                              and last-N event timelines\n"
      "  help                        this listing\n";
}

int usage() {
  printUsage(std::cerr);
  return 2;
}

/// args[i] as a whole number in [min, max] (util::parseSize), `fallback`
/// when absent; nullopt when malformed or out of range.
std::optional<std::size_t> numberArg(
    const std::vector<std::string>& args, std::size_t i,
    std::size_t fallback, std::size_t min = 0,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  return i < args.size() ? util::parseSize(args[i], min, max) : fallback;
}

constexpr std::size_t kMaxYear = 9999;
constexpr std::size_t kMaxInt = std::numeric_limits<int>::max();

/// `[year] [seed]` after the first argument of generate/transform.
std::optional<llm::LlmOptions> llmOptionsArgs(
    const std::vector<std::string>& args) {
  const std::optional<std::size_t> year = numberArg(args, 1, 2018, 0, kMaxYear);
  const std::optional<std::size_t> seed = numberArg(args, 2, 1);
  if (!year || !seed) return std::nullopt;
  llm::LlmOptions options;
  options.year = static_cast<int>(*year);
  options.seed = *seed;
  return options;
}

int cmdGenerate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::optional<llm::LlmOptions> options = llmOptionsArgs(args);
  if (!options) return usage();
  llm::SyntheticLlm llm(*options);
  std::cout << llm.generate(corpus::challengeById(args[0]));
  return 0;
}

int cmdTransform(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::optional<llm::LlmOptions> options = llmOptionsArgs(args);
  if (!options) return usage();
  llm::SyntheticLlm llm(*options);
  std::cout << llm.transform(readFile(args[0]));
  return 0;
}

int cmdInspect(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const style::StyleProfile profile =
      style::inferProfileFromSource(readFile(args[0]));
  std::cout << profile.describe() << '\n';
  const style::NearestArchetype nearest = style::nearestArchetype(profile);
  std::cout << "nearest LLM archetype #" << nearest.index << " at distance "
            << nearest.distance << '\n';
  return 0;
}

int cmdTrain(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::optional<std::size_t> year = numberArg(args, 1, 2018, 0, kMaxYear);
  const std::optional<std::size_t> authors = numberArg(args, 2, 60, 1);
  if (!year || !authors) return usage();
  std::cerr << "training " << *authors << "-author oracle for " << *year
            << "...\n";
  const corpus::YearDataset ds =
      corpus::buildYearDataset(static_cast<int>(*year), *authors);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : ds.samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::AttributionModel model;
  model.train(sources, labels);
  model.saveFile(args[0]);
  std::cerr << "saved " << args[0] << " (" << model.classCount()
            << " classes)\n";
  return 0;
}

int cmdAttribute(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const core::AttributionModel model =
      core::AttributionModel::loadFile(args[0]);
  const std::string source = readFile(args[1]);
  const int predicted = model.predict(source);
  const std::vector<double> votes = model.predictProba(source);
  std::cout << "A" << predicted << " (confidence "
            << votes[static_cast<std::size_t>(predicted)] << ")\n";
  return 0;
}

int cmdEvade(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const std::optional<std::size_t> author = numberArg(args, 2, 0, 0, kMaxInt);
  if (!author) return usage();
  const core::AttributionModel model =
      core::AttributionModel::loadFile(args[0]);
  evasion::StyleEvader evader(model, evasion::EvasionConfig{});
  const evasion::EvasionResult result =
      evader.evade(readFile(args[1]), static_cast<int>(*author));
  std::cerr << "A" << result.originalPrediction << " -> A"
            << result.finalPrediction << " in " << result.classifierQueries
            << " queries (" << (result.evaded ? "evaded" : "NOT evaded")
            << ")\n";
  std::cout << result.source;
  return result.evaded ? 0 : 1;
}

int cmdChallenges() {
  for (const corpus::Challenge& ch : corpus::catalogue()) {
    std::cout << ch.id << "  -  " << ch.title << '\n';
  }
  return 0;
}

// --- observability inspectors ---------------------------------------------

/// Reads one sca-run-v1 record (a manifest file). False, with the reason
/// on stderr, when the file is missing or holds no record.
bool readRecord(const std::string& path, obs::RunRecord* record) {
  if (!obs::parseRunRecord(readFile(path), record)) {
    std::cerr << "error: " << path << " is not an "
              << obs::kRunRecordSchema << " record\n";
    return false;
  }
  return true;
}

template <typename Map>
void printEntries(const Map& entries) {
  for (const auto& [name, value] : entries) {
    std::cout << "  " << name << " = " << value << '\n';
  }
}

void printDoubles(const std::map<std::string, double>& entries) {
  for (const auto& [name, value] : entries) {
    std::cout << "  " << name << " = " << util::formatDouble(value, 6)
              << '\n';
  }
}

int cmdMetrics(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const bool stableOnly =
      std::find(args.begin(), args.end(), "--stable") != args.end();
  obs::RunRecord record;
  if (!readRecord(args[0], &record)) return 1;

  if (stableOnly) {
    // Raw canonical bytes, so two records can be compared with cmp(1).
    // An empty stable section is an error: an instrumented run always
    // records something, so emptiness means telemetry was lost.
    if (record.counters.empty()) {
      std::cerr << "error: empty stable metrics snapshot in " << args[0]
                << '\n';
      return 1;
    }
    std::cout << record.metrics << '\n';
    return 0;
  }

  std::cout << "bench:    " << record.bench << '\n'
            << "status:   " << (record.complete ? "complete" : "partial")
            << '\n';
  if (!record.partialCause.empty()) {
    std::cout << "cause:    " << record.partialCause << '\n';
  }
  std::cout << "git_sha:  " << record.gitSha << '\n'
            << "threads:  " << record.threads << '\n';
  std::cout << "stable counters:\n";
  printEntries(record.counters);
  std::cout << "runtime counters:\n";
  printEntries(record.runtimeCounters);
  std::cout << "gauges:\n";
  printDoubles(record.gauges);
  std::cout << "phases (s):\n";
  printDoubles(record.phases);
  return 0;
}

/// `trace <file>`: span count and total time per name. With `--summary
/// [--top N]`, the analytics view instead — per-name self-time hotspots
/// plus the critical path, both from trace_analysis.hpp.
int cmdTrace(const std::vector<std::string>& args) {
  std::string path;
  bool summary = false;
  std::size_t topN = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--summary") {
      summary = true;
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      const std::optional<std::size_t> top = util::parseSize(args[++i]);
      if (!top) return usage();
      topN = *top;
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  const util::Result<std::vector<obs::TraceEvent>> parsed =
      obs::parseChromeTrace(readFile(path));
  if (!parsed.ok()) {
    std::cerr << "error: " << path << ": " << parsed.status().toString()
              << '\n';
    return 1;
  }
  const std::vector<obs::TraceEvent>& events = parsed.value();
  const auto seconds = [](std::uint64_t ns) {
    return util::formatDouble(static_cast<double>(ns) / 1e9, 6);
  };

  if (!summary) {
    if (events.empty()) {
      std::cerr << "error: " << path << " contains no events\n";
      return 1;
    }
    std::map<std::string, std::pair<std::size_t, std::uint64_t>> byName;
    for (const obs::TraceEvent& event : events) {
      auto& [count, totalNs] = byName[event.name];
      ++count;
      totalNs += event.durationNs;
    }
    std::cout << events.size() << " events\n";
    for (const auto& [name, row] : byName) {
      std::cout << "  " << name << ": " << row.first << " spans, "
                << seconds(row.second) << " s\n";
    }
    return 0;
  }

  std::cout << events.size() << " spans\n";
  std::cout << "hotspots (by self time):\n";
  for (const obs::SpanStats& stats : obs::spanHotspots(events, topN)) {
    std::cout << "  " << stats.name << ": " << stats.count << " spans, self "
              << seconds(stats.selfNs) << " s, total "
              << seconds(stats.totalNs) << " s\n";
  }
  std::cout << "critical path:\n";
  for (const obs::CriticalPathStep& step : obs::criticalPath(events)) {
    std::cout << "  " << step.name << " (" << seconds(step.durationNs)
              << " s, self " << seconds(step.selfNs) << " s)\n";
  }
  return 0;
}

/// `diff <manifestA> <manifestB>`: exit 0 iff the stable metrics sections
/// are byte-equal; either way, print per-counter and per-phase deltas so
/// "what changed" never requires eyeballing raw JSON.
int cmdDiff(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  obs::RunRecord a;
  obs::RunRecord b;
  if (!readRecord(args[0], &a) || !readRecord(args[1], &b)) return 2;
  const auto status = [](const obs::RunRecord& record) {
    return record.complete ? "complete" : "partial";
  };
  std::cout << "A: " << args[0] << " (bench " << a.bench << ", "
            << status(a) << ")\n"
            << "B: " << args[1] << " (bench " << b.bench << ", "
            << status(b) << ")\n";

  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counters;
  for (const auto& [name, value] : a.counters) counters[name].first = value;
  for (const auto& [name, value] : b.counters) counters[name].second = value;
  std::size_t differing = 0;
  for (const auto& [name, values] : counters) {
    if (values.first == values.second) continue;
    ++differing;
    std::cout << "  counter " << name << ": " << values.first << " -> "
              << values.second << '\n';
  }
  if (differing == 0) std::cout << "  stable counters: identical\n";

  std::map<std::string, std::pair<double, double>> phases;
  for (const auto& [name, value] : a.phases) phases[name].first = value;
  for (const auto& [name, value] : b.phases) phases[name].second = value;
  for (const auto& [name, values] : phases) {
    std::cout << "  phase " << name << ": "
              << util::formatDouble(values.first, 3) << " s -> "
              << util::formatDouble(values.second, 3) << " s ("
              << (values.second >= values.first ? "+" : "")
              << util::formatDouble(values.second - values.first, 3)
              << ")\n";
  }

  const bool identical = a.metrics == b.metrics;
  std::cout << (identical ? "stable metrics identical\n"
                          : "stable metrics DIFFER\n");
  return identical ? 0 : 1;
}

/// `history list|check|gc`: the cross-run perf history inspectors.
int cmdHistory(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string& action = args[0];
  if (action != "list" && action != "check" && action != "gc") {
    return usage();
  }

  std::string path;
  bool checkDigest = true;
  std::size_t keep = 20;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--no-digest") {
      checkDigest = false;
    } else if (arg == "--keep" && i + 1 < args.size()) {
      const std::optional<std::size_t> value = util::parseSize(args[++i]);
      if (!value) return usage();
      keep = *value;
    } else if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) path = obs::configuredHistoryPath();
  if (path.empty()) {
    std::cerr << "error: history disabled (SCA_HISTORY=off) and no path "
                 "given\n";
    return 2;
  }

  if (action == "gc") {
    const util::Result<std::size_t> dropped = obs::gcHistory(path, keep);
    if (!dropped.ok()) {
      std::cerr << "error: " << dropped.status().toString() << '\n';
      return 1;
    }
    std::cout << "dropped " << dropped.value()
              << " record(s), kept the newest " << keep << " per group\n";
    return 0;
  }

  const obs::HistoryLoad loaded = obs::loadHistory(path);
  if (loaded.skippedLines > 0) {
    std::cout << "note: skipped " << loaded.skippedLines
              << " torn or foreign line(s) in " << path << '\n';
  }
  if (loaded.records.empty()) {
    // An absent history is not a failure: the first run of a fresh
    // checkout has nothing to baseline against.
    std::cout << "no history at " << path << '\n';
    return 0;
  }

  if (action == "list") {
    for (const obs::RunRecord& record : loaded.records) {
      std::cout << record.bench << "  threads=" << record.threads
                << "  " << (record.complete ? "complete" : "partial ")
                << "  total "
                << util::formatDouble(record.totalSeconds, 3)
                << " s  digest " << record.digest;
      if (!record.gitSha.empty()) {
        std::cout << "  git " << record.gitSha.substr(0, 8);
      }
      if (record.maxRssKb > 0) {
        std::cout << "  rss " << record.maxRssKb << " kB";
      }
      std::cout << '\n';
    }
    std::cout << loaded.records.size() << " record(s) in " << path << '\n';
    return 0;
  }

  // check
  const obs::RegressionReport report =
      obs::checkRegressions(loaded.records, checkDigest);
  std::cout << report.groupsChecked << " group(s) checked, "
            << report.groupsSkipped << " skipped (too few baselines)\n";
  for (const obs::RegressionFinding& finding : report.findings) {
    std::cout << "REGRESSION [" << finding.kind << "] " << finding.bench
              << " (" << finding.group << ")";
    if (!finding.phase.empty()) {
      std::cout << " " << finding.phase << ": baseline "
                << util::formatDouble(finding.baseline, 3) << " s -> "
                << util::formatDouble(finding.current, 3) << " s";
    }
    std::cout << "  " << finding.detail << '\n';
  }
  std::cout << (report.ok() ? "ok" : "FAIL") << '\n';
  return report.ok() ? 0 : 1;
}

/// `serve`: the JSONL serving loop (src/serve/server.hpp) on
/// stdin/stdout. Responses and the drain record go to stdout; the human
/// summary goes to stderr. On exit the run's one sca-run-v1 record is
/// written to SCA_MANIFEST and appended to SCA_HISTORY, whichever are set
/// — the same record a bench run leaves, so `sca_cli history check` and
/// the CI smoke gates cover serving runs too. A malformed fleet knob
/// (SCA_SHARDS, SCA_FAULT_RATE, SCA_HEDGE_S) exits 2 before anything is
/// read or served.
int cmdServe(const std::vector<std::string>& args) {
  if (!args.empty()) return usage();
  serve::ServerOptions options;
  try {
    options = serve::ServerOptions::fromEnv();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  // Arm crash forensics for the whole serving session: a wedged shard or a
  // crash mid-stream leaves a postmortem under bench_out/flight/.
  obs::flight::ArmedScope flightScope(obs::flight::armOptionsFromEnv("serve"));
  const auto start = std::chrono::steady_clock::now();
  serve::Server server(options);
  const serve::ServeStats stats = server.run(std::cin, std::cout);

  obs::FinishedRun run;
  run.bench = "serve";
  run.threads = runtime::globalPool().size();
  run.complete = true;
  run.totalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (const char* manifest = std::getenv("SCA_MANIFEST");
      manifest != nullptr && *manifest != '\0') {
    run.manifestPath = manifest;
  }
  if (const char* history = std::getenv("SCA_HISTORY");
      history != nullptr && *history != '\0') {
    run.historyPath = obs::configuredHistoryPath();
  }
  if (!run.manifestPath.empty() || !run.historyPath.empty()) {
    if (const util::Status status = obs::writeRunRecord(run);
        !status.isOk()) {
      std::cerr << "[record] write failed: " << status.toString() << '\n';
    }
  }

  std::cerr << "served " << stats.ok << "/" << stats.requests
            << " ok (errors " << stats.errors << ", shed " << stats.shed
            << ", rejected " << stats.rejected << ", invalid "
            << stats.invalid << "), availability "
            << stats.availabilityDisplay()
            << (stats.availabilityDefined() ? "%" : "") << "\n";
  return 0;
}

/// `serve-report <log> [--slowest N]`: reconstruct per-request lifecycles
/// from a structured event log (src/serve/report.hpp).
int cmdServeReport(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::size_t slowestN = 5;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--slowest" && i + 1 < args.size()) {
      const std::optional<std::size_t> value = util::parseSize(args[++i]);
      if (!value) return usage();
      slowestN = *value;
    } else {
      return usage();
    }
  }
  const serve::ServeReport report =
      serve::ServeReport::fromLog(readFile(args[0]));
  std::cout << report.summaryText(slowestN);
  return report.requests().empty() ? 1 : 0;
}

/// `postmortem <file> [--events N]`: offline reconstruction of a flight-
/// recorder dump — watchdog stall verdicts and fatal-signal postmortems
/// share the sca-postmortem-v1 schema.
int cmdPostmortem(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string path;
  std::size_t eventsPerThread = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--events" && i + 1 < args.size()) {
      const std::optional<std::size_t> value = util::parseSize(args[++i]);
      if (!value) return usage();
      eventsPerThread = *value;
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  const util::Result<obs::flight::Postmortem> parsed =
      obs::flight::Postmortem::parse(readFile(path));
  if (!parsed.ok()) {
    std::cerr << "error: " << path << ": " << parsed.status().toString()
              << '\n';
    return 1;
  }
  std::cout << parsed.value().renderText(eventsPerThread);
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& command,
             const std::vector<std::string>& args) {
  if (command == "generate") return cmdGenerate(args);
  if (command == "transform") return cmdTransform(args);
  if (command == "inspect") return cmdInspect(args);
  if (command == "train") return cmdTrain(args);
  if (command == "attribute") return cmdAttribute(args);
  if (command == "evade") return cmdEvade(args);
  if (command == "challenges") return cmdChallenges();
  if (command == "metrics") return cmdMetrics(args);
  if (command == "diff") return cmdDiff(args);
  if (command == "trace") return cmdTrace(args);
  if (command == "history") return cmdHistory(args);
  if (command == "serve") return cmdServe(args);
  if (command == "serve-report") return cmdServeReport(args);
  if (command == "postmortem") return cmdPostmortem(args);
  if (command == "help" || command == "--help" || command == "-h") {
    printUsage(std::cout);
    return 0;
  }
  std::cerr << "error: unknown command \"" << command << "\"\n";
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    // Bare invocation is a request for orientation, not a mistake.
    printUsage(std::cout);
    return 0;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  int rc = 0;
  try {
    rc = dispatch(command, args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    rc = 1;
  }
  const util::Status traceStatus = obs::flushConfiguredTrace();
  if (!traceStatus.isOk()) {
    std::cerr << "[trace] write failed: " << traceStatus.toString() << '\n';
  }
  return rc;
}
