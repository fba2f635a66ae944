#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "ml/random_forest.hpp"
#include "obs/trace_analysis.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric the traced run prints, with its unit. The names
/// are "<module>.<measure>"; BENCHMARK.json lists the same set.
const std::vector<std::pair<std::string, std::string>>& layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"corpus.build_s", "s"},
      {"llm.transform_s", "s"},
      {"llm.transforms_per_s", "1/s"},
      {"llm.call_us_p50", "us"},
      {"llm.retries", "count"},
      {"llm.failovers", "count"},
      {"llm.replayed_turns", "count"},
      {"llm.calls_per_ok", "ratio"},
      {"lexer.tokenize_us_p50", "us"},
      {"ast.parse_us_p50", "us"},
      {"features.extract_s", "s"},
      {"features.rows_per_s", "1/s"},
      {"features.transform_us_p50", "us"},
      {"features.memo_hit_pct", "%"},
      {"selection.fit_s", "s"},
      {"selection.cells_per_s", "1/s"},
      {"selection.apply_us_p50", "us"},
      {"forest.fit_s", "s"},
      {"forest.trees_per_s", "1/s"},
      {"forest.nodes", "count"},
      {"forest.predict_us_p50", "us"},
      {"forest.predict_rows_per_s", "1/s"},
      {"core.model_load_s", "s"},
      {"core.model_mb", "MB"},
      {"core.grouping_s", "s"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.batches", "count"},
      {"serve.batch_mean", "count"},
      {"runtime.cpu_util", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

/// Work credited to each layer by closed Layer spans.
struct WorkLedger {
  std::mutex mu;
  std::map<std::string, double> work;  // guarded by mu
};

WorkLedger& ledger() {
  static WorkLedger instance;
  return instance;
}

/// Work unit shown in the layer table, by layer-name prefix.
std::string_view workUnit(std::string_view layer) {
  static const std::vector<std::pair<std::string_view, std::string_view>>
      kUnits = {
          {"corpus.", "samples"},     {"llm.", "calls"},
          {"lexer.", "tokens"},       {"ast.", "files"},
          {"features.", "rows"},      {"selection.fit", "cells"},
          {"selection.", "rows"},     {"forest.fit", "trees"},
          {"forest.", "rows"},        {"core.grouping", "samples"},
          {"core.load", "bytes"},     {"core.save", "bytes"},
          {"core.", "rows"},          {"serve.", "requests"},
      };
  for (const auto& [prefix, unit] : kUnits) {
    if (layer.substr(0, prefix.size()) == prefix) return unit;
  }
  return "ops";
}

}  // namespace

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int threadCount() {
  return static_cast<int>(sca::runtime::globalPool().size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::size_t forestNodes(const sca::ml::RandomForest& forest) {
  std::ostringstream saved;
  forest.save(saved);
  std::istringstream in(saved.str());
  std::size_t nodes = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("tree ", 0) == 0) nodes += std::stoul(line.substr(5));
  }
  return nodes;
}

// ------------------------------------------------------------- Report --

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  correct = false;
  std::cerr << "[perfbench] FAILED (" << ops << " op(s)): " << why << "\n";
}

double medianSetup(const std::function<void()>& setUp) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double start = wallSeconds();
    setUp();
    times.push_back(wallSeconds() - start);
  }
  return median(times);
}

Passes timePasses(double seconds,
                  const std::function<void(std::vector<double>*)>& pass) {
  Passes passes;
  const double start = wallSeconds();
  while (passes.wall.empty() || wallSeconds() - start < seconds) {
    std::vector<double> ops;
    const Stopwatch clock;
    pass(&ops);
    passes.wall.push_back(clock.wall());
    passes.cpu.push_back(clock.cpu());
    passes.opSeconds.push_back(std::move(ops));
  }
  return passes;
}

void Report::endToEnd(double setupSeconds, const Passes& passes,
                      std::uint64_t opsPerPass) {
  std::vector<double> throughput, p50, p99;
  for (std::size_t i = 0; i < passes.wall.size(); ++i) {
    throughput.push_back(static_cast<double>(opsPerPass) / passes.wall[i]);
    p50.push_back(percentile(passes.opSeconds[i], 0.50));
    p99.push_back(percentile(passes.opSeconds[i], 0.99));
  }
  metric("setup_s", setupSeconds, "s");
  metric("wall_s", median(passes.wall), "s");
  metric("cpu_s", median(passes.cpu), "s");
  metric("ops_per_s", median(throughput), "1/s");
  metric("p50_ms", 1e3 * median(p50), "ms");
  metric("p99_ms", 1e3 * median(p99), "ms");
  metric("peak_rss_mb", peakRssMb(), "MB");
}

void Report::fillLayerDefaults() {
  for (const auto& [name, unit] : layerMetrics()) {
    if (metrics.find(name) == metrics.end()) metric(name, 0.0, unit);
  }
}

void Report::print() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << exact(entry.first) << ", \"unit\": \"" << entry.second << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// -------------------------------------------------------- OutputCheck --

OutputCheck::OutputCheck(const Options& options, Report& report)
    : options_(options), report_(report) {
  if (options.referencePath.empty() || options.record) return;
  std::ifstream in(options.referencePath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, op, value;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed >> op >> value)) continue;
    if (workload == options.workload && seed == options.seed) {
      reference_[op] = value;
    }
  }
}

bool OutputCheck::check(const std::string& op, const std::string& value) {
  const auto [seen, inserted] = first_.emplace(op, value);
  if (inserted && options_.record) {
    std::cout << "REFERENCE " << options_.workload << ' ' << options_.seed
              << ' ' << op << ' ' << value << "\n";
  }
  if (seen->second != value) {
    report_.fail(1, op + " changed between passes: " + seen->second +
                        " then " + value);
    return false;
  }
  const auto ref = reference_.find(op);
  if (ref != reference_.end() && ref->second != value) {
    report_.fail(1, op + " = " + value + ", reference " + ref->second);
    return false;
  }
  return true;
}

// ------------------------------------------------------------ tracing --

Layer::Layer(std::string_view name, double work)
    : span_(name, "layer"), name_(name), work_(work) {}

Layer::~Layer() {
  if (span_.id() == 0) return;  // tracing was off: no span, no work
  WorkLedger& book = ledger();
  const std::lock_guard<std::mutex> lock(book.mu);
  book.work[name_] += work_;
}

std::uint64_t traceNow() { return sca::obs::Tracer::global().nowNs(); }

LayerTable layerTable(const std::string& title, std::uint64_t fromNs,
                      std::uint64_t toNs) {
  const std::vector<sca::obs::TraceEvent> all =
      sca::obs::Tracer::global().snapshotEvents();
  std::unordered_map<std::uint64_t, const sca::obs::TraceEvent*> byId;
  for (const sca::obs::TraceEvent& event : all) byId[event.id] = &event;
  const auto isLayer = [&](const sca::obs::TraceEvent& event) {
    return std::string_view(event.category) == "layer" &&
           event.startNs >= fromNs && event.startNs < toNs;
  };

  // Keep the benchmark's own spans; a span whose parent is a library span
  // (parallel_for, forest_predict, ...) is re-parented to its nearest
  // layer ancestor, so self time is layer minus nested layers only.
  std::vector<sca::obs::TraceEvent> layers;
  std::map<std::string, std::vector<double>> durations;
  for (const sca::obs::TraceEvent& event : all) {
    if (!isLayer(event)) continue;
    sca::obs::TraceEvent kept = event;
    std::uint64_t parent = event.parentId;
    while (parent != 0) {
      const auto it = byId.find(parent);
      if (it == byId.end()) {
        parent = 0;
      } else if (isLayer(*it->second)) {
        break;
      } else {
        parent = it->second->parentId;
      }
    }
    kept.parentId = parent;
    durations[kept.name].push_back(static_cast<double>(kept.durationNs) /
                                   1e3);
    layers.push_back(std::move(kept));
  }

  std::map<std::string, double> work;
  {
    WorkLedger& book = ledger();
    const std::lock_guard<std::mutex> lock(book.mu);
    work = book.work;
  }

  LayerTable rows;
  double totalSelf = 0.0;
  for (const sca::obs::SpanStats& stats : sca::obs::spanHotspots(layers)) {
    LayerRow& row = rows[stats.name];
    row.calls = stats.count;
    row.selfSeconds = static_cast<double>(stats.selfNs) / 1e9;
    row.work = work[stats.name];
    row.callUsP50 = median(durations[stats.name]);
    totalSelf += row.selfSeconds;
  }

  std::fprintf(stderr, "\nper-layer table: %s\n%-26s %7s %10s %14s %-8s %14s %7s\n",
               title.c_str(), "layer", "calls", "self_s", "work", "unit",
               "work/s", "share");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-26s %7llu %10.4f %14.0f %-8s %14.1f %6.1f%%\n",
                 name.c_str(), static_cast<unsigned long long>(row.calls),
                 row.selfSeconds, row.work,
                 std::string(workUnit(name)).c_str(),
                 row.selfSeconds > 0 ? row.work / row.selfSeconds : 0.0,
                 totalSelf > 0 ? 100.0 * row.selfSeconds / totalSelf : 0.0);
  }
  std::fprintf(stderr, "%-26s %7s %10.4f\n\n", "total", "", totalSelf);
  return rows;
}

void addLayerMetrics(Report& report, const LayerTable& rows) {
  const auto row = [&](const std::string& name) -> const LayerRow* {
    const auto it = rows.find(name);
    return it == rows.end() ? nullptr : &it->second;
  };
  const auto rate = [](double work, double seconds) {
    return seconds > 0 ? work / seconds : 0.0;
  };
  // Whole-layer seconds and throughput.
  const struct {
    const char* layer;
    const char* seconds;
    const char* perSecond;
  } kTimed[] = {
      {"corpus.build", "corpus.build_s", nullptr},
      {"llm.transform", "llm.transform_s", "llm.transforms_per_s"},
      {"selection.fit", "selection.fit_s", "selection.cells_per_s"},
      {"forest.fit", "forest.fit_s", "forest.trees_per_s"},
      {"forest.predict_all", nullptr, "forest.predict_rows_per_s"},
      {"core.load", "core.model_load_s", nullptr},
      {"core.grouping", "core.grouping_s", nullptr},
  };
  for (const auto& timed : kTimed) {
    if (const LayerRow* r = row(timed.layer)) {
      if (timed.seconds) report.metric(timed.seconds, r->selfSeconds, "s");
      if (timed.perSecond) {
        report.metric(timed.perSecond, rate(r->work, r->selfSeconds), "1/s");
      }
    }
  }
  // Feature extraction = FeatureExtractor::fit + transformAll.
  const LayerRow* fit = row("features.fit");
  const LayerRow* all = row("features.transform_all");
  if (fit != nullptr || all != nullptr) {
    const double seconds = (fit ? fit->selfSeconds : 0.0) +
                           (all ? all->selfSeconds : 0.0);
    const double rows = (fit ? fit->work : 0.0) + (all ? all->work : 0.0);
    report.metric("features.extract_s", seconds, "s");
    report.metric("features.rows_per_s", rate(rows, seconds), "1/s");
  }
  // Per-call medians of single-item calls.
  const struct {
    const char* layer;
    const char* metric;
  } kPerCall[] = {
      {"llm.call", "llm.call_us_p50"},
      {"lexer.tokenize", "lexer.tokenize_us_p50"},
      {"ast.parse", "ast.parse_us_p50"},
      {"features.transform", "features.transform_us_p50"},
      {"selection.apply", "selection.apply_us_p50"},
      {"forest.predict", "forest.predict_us_p50"},
  };
  for (const auto& perCall : kPerCall) {
    if (const LayerRow* r = row(perCall.layer)) {
      report.metric(perCall.metric, r->callUsP50, "us");
    }
  }
}

void resetTrace() {
  sca::obs::Tracer::global().clear();
  WorkLedger& book = ledger();
  const std::lock_guard<std::mutex> lock(book.mu);
  book.work.clear();
}

void flushTrace() {
  const sca::util::Status status = sca::obs::flushConfiguredTrace();
  if (!status.isOk()) {
    std::cerr << "[perfbench] trace not written: " << status.message() << "\n";
  }
}

}  // namespace perfbench
