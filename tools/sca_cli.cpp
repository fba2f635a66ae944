// sca_cli — command-line front end for the library.
//
//   sca_cli generate <challenge-id> [year] [seed]   emit LLM code
//   sca_cli transform <file.cpp> [year] [seed]      one GPT(.) rewrite
//   sca_cli inspect <file.cpp>                      inferred style profile
//   sca_cli train <model.txt> [year] [authors]      train + save an oracle
//   sca_cli attribute <model.txt> <file.cpp>        predict the author
//   sca_cli evade <model.txt> <file.cpp> <author>   style-space evasion
//   sca_cli challenges                              list the catalogue
//   sca_cli metrics <manifest.json> [--stable]      inspect a run manifest
//   sca_cli diff <manifestA> <manifestB>            compare two manifests
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
// unknown subcommand prints the same listing to stderr and exits nonzero.
//
// Every command flushes the $SCA_TRACE Chrome trace on exit, so any
// invocation can be profiled: SCA_TRACE=t.json sca_cli train ...
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
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
      "  metrics <manifest.json> [--stable]        inspect a run manifest\n"
      "  diff <manifestA> <manifestB>              compare two manifests\n"
      "                              (exit 0 iff stable metrics byte-equal)\n"
      "  trace <trace.json> [--summary [--top N]]  summarize a Chrome trace\n"
      "                              (--summary: self-time hotspots and the\n"
      "                               critical path)\n"
      "  history list|check|gc [path] [--window K --factor F --min-delta S\n"
      "                               --min-seconds S --rss-factor F\n"
      "                               --min-rss-delta-kb K --keep N\n"
      "                               --no-digest]\n"
      "                              cross-run perf history; default path\n"
      "                              $SCA_HISTORY or\n"
      "                              bench_out/history/history.jsonl\n"
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

int cmdGenerate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  llm::LlmOptions options;
  options.year = args.size() > 1 ? std::stoi(args[1]) : 2018;
  options.seed = args.size() > 2 ? std::stoull(args[2]) : 1;
  llm::SyntheticLlm llm(options);
  std::cout << llm.generate(corpus::challengeById(args[0]));
  return 0;
}

int cmdTransform(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  llm::LlmOptions options;
  options.year = args.size() > 1 ? std::stoi(args[1]) : 2018;
  options.seed = args.size() > 2 ? std::stoull(args[2]) : 1;
  llm::SyntheticLlm llm(options);
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
  const int year = args.size() > 1 ? std::stoi(args[1]) : 2018;
  const std::size_t authors =
      args.size() > 2 ? std::stoull(args[2]) : 60;
  std::cerr << "training " << authors << "-author oracle for " << year
            << "...\n";
  const corpus::YearDataset ds = corpus::buildYearDataset(year, authors);
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
  const core::AttributionModel model =
      core::AttributionModel::loadFile(args[0]);
  evasion::StyleEvader evader(model, evasion::EvasionConfig{});
  const evasion::EvasionResult result =
      evader.evade(readFile(args[1]), std::stoi(args[2]));
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

/// Top-level string/number field of one JSON object, unquoted ("" if
/// absent).
std::string manifestField(const std::string& json, const std::string& key) {
  std::vector<std::pair<std::string, std::string>> entries;
  if (!obs::topLevelEntries(json, &entries)) return "";
  for (const auto& [name, value] : entries) {
    if (name != key) continue;
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      return value.substr(1, value.size() - 2);
    }
    return value;
  }
  return "";
}

void printObjectEntries(const std::string& objectJson,
                        const std::string& indent) {
  std::vector<std::pair<std::string, std::string>> entries;
  if (!obs::topLevelEntries(objectJson, &entries)) return;
  for (const auto& [name, value] : entries) {
    std::cout << indent << name << " = " << value << '\n';
  }
}

int cmdMetrics(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const bool stableOnly =
      std::find(args.begin(), args.end(), "--stable") != args.end();
  const std::string manifest = readFile(args[0]);
  const std::string metrics = obs::extractJsonObject(manifest, "metrics");
  if (metrics.empty()) {
    std::cerr << "error: " << args[0] << " has no \"metrics\" object\n";
    return 1;
  }

  if (stableOnly) {
    // Raw canonical bytes, so two manifests can be compared with cmp(1).
    // An empty stable section is an error: an instrumented run always
    // records something, so emptiness means telemetry was lost.
    std::vector<std::pair<std::string, std::string>> counters;
    if (!obs::topLevelEntries(obs::extractJsonObject(metrics, "counters"),
                              &counters)) {
      std::cerr << "error: malformed stable metrics in " << args[0] << '\n';
      return 1;
    }
    if (counters.empty()) {
      std::cerr << "error: empty stable metrics snapshot in " << args[0]
                << '\n';
      return 1;
    }
    std::cout << metrics << '\n';
    return 0;
  }

  std::cout << "bench:    " << manifestField(manifest, "bench") << '\n'
            << "status:   " << manifestField(manifest, "status") << '\n';
  if (const std::string cause = manifestField(manifest, "partial_cause");
      !cause.empty()) {
    std::cout << "cause:    " << cause << '\n';
  }
  std::cout << "git_sha:  " << manifestField(manifest, "git_sha") << '\n'
            << "threads:  " << manifestField(manifest, "threads") << '\n';
  std::cout << "stable counters:\n";
  printObjectEntries(obs::extractJsonObject(metrics, "counters"), "  ");
  const std::string histograms = obs::extractJsonObject(metrics,
                                                        "histograms");
  if (histograms.size() > 2) {
    std::cout << "stable histograms:\n";
    printObjectEntries(histograms, "  ");
  }
  const std::string runtimeMetrics =
      obs::extractJsonObject(manifest, "runtime_metrics");
  if (!runtimeMetrics.empty()) {
    std::cout << "runtime counters:\n";
    printObjectEntries(obs::extractJsonObject(runtimeMetrics, "counters"),
                       "  ");
    std::cout << "gauges:\n";
    printObjectEntries(obs::extractJsonObject(runtimeMetrics, "gauges"),
                       "  ");
  }
  std::cout << "phases (s):\n";
  printObjectEntries(obs::extractJsonObject(manifest, "phases"), "  ");
  return 0;
}

/// `trace <file> --summary [--top N]`: the analytics view — per-name self
/// time hotspots plus the critical path, both from trace_analysis.hpp.
int cmdTraceSummary(const std::string& path, std::size_t topN) {
  const util::Result<std::vector<obs::TraceEvent>> parsed =
      obs::parseChromeTrace(readFile(path));
  if (!parsed.ok()) {
    std::cerr << "error: " << path << ": " << parsed.status().toString()
              << '\n';
    return 1;
  }
  const std::vector<obs::TraceEvent>& events = parsed.value();
  std::cout << events.size() << " spans\n";

  std::cout << "hotspots (by self time):\n";
  for (const obs::SpanStats& stats : obs::spanHotspots(events, topN)) {
    std::cout << "  " << stats.name << ": " << stats.count << " spans, self "
              << util::formatDouble(static_cast<double>(stats.selfNs) / 1e9,
                                    6)
              << " s, total "
              << util::formatDouble(static_cast<double>(stats.totalNs) / 1e9,
                                    6)
              << " s\n";
  }

  std::cout << "critical path:\n";
  for (const obs::CriticalPathStep& step : obs::criticalPath(events)) {
    std::cout << "  " << step.name << " ("
              << util::formatDouble(
                     static_cast<double>(step.durationNs) / 1e9, 6)
              << " s, self "
              << util::formatDouble(static_cast<double>(step.selfNs) / 1e9, 6)
              << " s)\n";
  }
  return 0;
}

int cmdTrace(const std::vector<std::string>& args) {
  std::string path;
  bool summary = false;
  std::size_t topN = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--summary") {
      summary = true;
    } else if (args[i] == "--top") {
      if (i + 1 >= args.size()) return usage();
      topN = std::stoull(args[++i]);
    } else if (path.empty() && args[i].rfind("--", 0) != 0) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (summary) return cmdTraceSummary(path, topN);

  const std::string trace = readFile(path);
  std::vector<std::string> events;
  if (!obs::topLevelElements(obs::extractJsonArray(trace, "traceEvents"),
                             &events)) {
    std::cerr << "error: " << path
              << " is not a Chrome trace (no traceEvents array)\n";
    return 1;
  }
  if (events.empty()) {
    std::cerr << "error: " << path << " contains no events\n";
    return 1;
  }

  struct Row {
    std::size_t count = 0;
    double totalUs = 0.0;
  };
  std::map<std::string, Row> byName;
  for (const std::string& event : events) {
    const std::string name = manifestField(event, "name");
    const std::string dur = manifestField(event, "dur");
    if (name.empty() || dur.empty()) {
      std::cerr << "error: malformed event in " << path << '\n';
      return 1;
    }
    Row& row = byName[name];
    ++row.count;
    row.totalUs += std::strtod(dur.c_str(), nullptr);
  }
  std::cout << events.size() << " events\n";
  for (const auto& [name, row] : byName) {
    std::cout << "  " << name << ": " << row.count << " spans, "
              << util::formatDouble(row.totalUs / 1e6, 6) << " s\n";
  }
  return 0;
}

/// Numeric top-level entries of one JSON object as a name->double map
/// (non-numeric values parse as 0, which never occurs in these sections).
std::map<std::string, double> numericEntries(const std::string& objectJson) {
  std::map<std::string, double> out;
  std::vector<std::pair<std::string, std::string>> entries;
  if (!obs::topLevelEntries(objectJson, &entries)) return out;
  for (const auto& [name, value] : entries) {
    out.emplace(name, std::strtod(value.c_str(), nullptr));
  }
  return out;
}

/// `diff <manifestA> <manifestB>`: exit 0 iff the stable metrics sections
/// are byte-equal; either way, print per-counter and per-phase deltas so
/// "what changed" never requires eyeballing raw JSON.
int cmdDiff(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string manifestA = readFile(args[0]);
  const std::string manifestB = readFile(args[1]);
  const std::string metricsA = obs::extractJsonObject(manifestA, "metrics");
  const std::string metricsB = obs::extractJsonObject(manifestB, "metrics");
  if (metricsA.empty() || metricsB.empty()) {
    std::cerr << "error: "
              << (metricsA.empty() ? args[0] : args[1])
              << " has no \"metrics\" object\n";
    return 2;
  }

  std::cout << "A: " << args[0] << " (bench "
            << manifestField(manifestA, "bench") << ", "
            << manifestField(manifestA, "status") << ")\n"
            << "B: " << args[1] << " (bench "
            << manifestField(manifestB, "bench") << ", "
            << manifestField(manifestB, "status") << ")\n";

  const std::map<std::string, double> countersA =
      numericEntries(obs::extractJsonObject(metricsA, "counters"));
  const std::map<std::string, double> countersB =
      numericEntries(obs::extractJsonObject(metricsB, "counters"));
  std::map<std::string, std::pair<double, double>> merged;
  for (const auto& [name, value] : countersA) merged[name].first = value;
  for (const auto& [name, value] : countersB) merged[name].second = value;
  std::size_t differing = 0;
  for (const auto& [name, values] : merged) {
    if (values.first == values.second) continue;
    ++differing;
    std::cout << "  counter " << name << ": "
              << util::formatDouble(values.first, 0) << " -> "
              << util::formatDouble(values.second, 0) << '\n';
  }
  if (differing == 0) std::cout << "  stable counters: identical\n";

  const std::map<std::string, double> phasesA =
      numericEntries(obs::extractJsonObject(manifestA, "phases"));
  const std::map<std::string, double> phasesB =
      numericEntries(obs::extractJsonObject(manifestB, "phases"));
  std::map<std::string, std::pair<double, double>> phases;
  for (const auto& [name, value] : phasesA) phases[name].first = value;
  for (const auto& [name, value] : phasesB) phases[name].second = value;
  for (const auto& [name, values] : phases) {
    std::cout << "  phase " << name << ": "
              << util::formatDouble(values.first, 3) << " s -> "
              << util::formatDouble(values.second, 3) << " s ("
              << (values.second >= values.first ? "+" : "")
              << util::formatDouble(values.second - values.first, 3)
              << ")\n";
  }

  const bool identical = metricsA == metricsB;
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
  obs::RegressionPolicy policy;
  std::size_t keep = 20;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool hasValue = i + 1 < args.size();
    if (arg == "--no-digest") {
      policy.checkDigest = false;
    } else if (arg == "--window" && hasValue) {
      policy.window = std::stoull(args[++i]);
    } else if (arg == "--factor" && hasValue) {
      policy.factor = std::stod(args[++i]);
    } else if (arg == "--min-delta" && hasValue) {
      policy.minDeltaSeconds = std::stod(args[++i]);
    } else if (arg == "--min-seconds" && hasValue) {
      policy.minPhaseSeconds = std::stod(args[++i]);
    } else if (arg == "--rss-factor" && hasValue) {
      policy.rssFactor = std::stod(args[++i]);
    } else if (arg == "--min-rss-delta-kb" && hasValue) {
      policy.minRssDeltaKb = std::stoull(args[++i]);
    } else if (arg == "--keep" && hasValue) {
      keep = std::stoull(args[++i]);
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

  obs::HistoryStore store(path);

  if (action == "gc") {
    const util::Result<std::size_t> dropped = store.gc(keep);
    if (!dropped.ok()) {
      std::cerr << "error: " << dropped.status().toString() << '\n';
      return 1;
    }
    std::cout << "dropped " << dropped.value()
              << " record(s), kept the newest " << keep << " per group\n";
    return 0;
  }

  const obs::HistoryStore::LoadResult loaded = store.load();
  if (loaded.skippedLines > 0) {
    std::cout << "note: skipped " << loaded.skippedLines
              << " torn line(s) in " << path << '\n';
  }
  if (!loaded.magicOk || loaded.records.empty()) {
    // An absent history is not a failure: the first run of a fresh
    // checkout has nothing to baseline against.
    std::cout << "no history at " << path << '\n';
    return 0;
  }

  if (action == "list") {
    for (const obs::HistoryRecord& record : loaded.records) {
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
      obs::checkRegressions(loaded.records, policy);
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
/// summary goes to stderr. With SCA_MANIFEST set, the run's manifest is
/// written on exit; with SCA_HISTORY set, one history record is appended —
/// the same artifacts a bench run leaves, so `sca_cli history check` and
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
  const double totalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  obs::recordProcessRusage();
  const std::size_t threads = runtime::globalPool().size();
  if (const char* manifestPath = std::getenv("SCA_MANIFEST");
      manifestPath != nullptr && *manifestPath != '\0') {
    obs::RunManifestOptions options;
    options.path = manifestPath;
    options.benchName = "serve";
    options.complete = true;
    options.threads = threads;
    const util::Status status = obs::writeRunManifest(options);
    if (!status.isOk()) {
      std::cerr << "[manifest] write failed: " << status.toString() << '\n';
    }
  }
  if (const char* historyPath = std::getenv("SCA_HISTORY");
      historyPath != nullptr && *historyPath != '\0') {
    if (const std::string resolved = obs::configuredHistoryPath();
        !resolved.empty()) {
      obs::HistoryStore store(resolved);
      const util::Status status =
          obs::appendRunHistory(store, "serve", threads, true, totalSeconds);
      if (!status.isOk()) {
        std::cerr << "[history] append failed: " << status.toString() << '\n';
      }
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
      slowestN = static_cast<std::size_t>(
          std::max(0LL, std::atoll(args[++i].c_str())));
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
    if (args[i] == "--events") {
      if (i + 1 >= args.size()) return usage();
      eventsPerThread = std::strtoull(args[++i].c_str(), nullptr, 10);
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
