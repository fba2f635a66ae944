// Shared plumbing of the benchmark runner: clocks, order statistics, the
// result record, committed reference outputs, and the layer spans plus the
// per-layer table of the traced run.
//
// The runner measures from outside: every timed or traced region wraps a
// call into a public sca function from these files. Nothing under src/ is
// instrumented for the benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace sca::ml {
class RandomForest;
}  // namespace sca::ml

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string referencePath;  // committed reference outputs ("" = none)
  bool record = false;        // print reference lines instead of checking
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRuns = 5;

[[nodiscard]] double wallSeconds();  // steady clock
[[nodiscard]] double cpuSeconds();   // process user+sys, via getrusage
[[nodiscard]] double peakRssMb();    // ru_maxrss of this process
[[nodiscard]] int threadCount();     // the global pool's worker count

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Wall and CPU seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(wallSeconds()), cpu0_(cpuSeconds()) {}
  [[nodiscard]] double wall() const { return wallSeconds() - wall0_; }
  [[nodiscard]] double cpu() const { return cpuSeconds() - cpu0_; }

 private:
  double wall0_;
  double cpu0_;
};

/// Runs `setUp` kSetupRuns times and returns the median wall seconds.
[[nodiscard]] double medianSetup(const std::function<void()>& setUp);

/// What the timed phase measured, pass by pass.
struct Passes {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<std::vector<double>> opSeconds;  // each op's latency
};

/// Repeats `pass` until `seconds` of wall time have gone by, at least
/// once. `pass` appends the latency of each op it runs.
[[nodiscard]] Passes timePasses(
    double seconds, const std::function<void(std::vector<double>*)>& pass);

/// One run's outcome: the verdict, op counts and named metrics, printed as
/// the last line of standard output.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts `ops` failed ops and explains why on stderr.
  void fail(std::uint64_t ops, const std::string& why);
  /// The end-to-end metrics. Every timing is a median over the passes, so
  /// a burst of load on the machine moves a few passes, not the result:
  /// wall_s, cpu_s, ops_per_s (= ops per pass / pass wall), and p50_ms /
  /// p99_ms, each pass's nearest-rank percentile of its op latencies.
  void endToEnd(double setupSeconds, const Passes& passes,
                std::uint64_t opsPerPass);
  /// Adds every per-layer metric this workload did not measure as 0 (the
  /// traced run prints the full per-layer set for every workload).
  void fillLayerDefaults();
  void print() const;

  std::map<std::string, std::pair<double, std::string>> metrics;
};

/// Committed reference outputs, lines "<workload> <seed> <op> <value>".
/// Checks each op's output against the reference for this seed and
/// against the op's first output in this run (outputs are deterministic,
/// so a later pass that disagrees with the first is a failure too). In
/// record mode the first outputs are printed as reference lines instead.
class OutputCheck {
 public:
  OutputCheck(const Options& options, Report& report);
  /// False (and one failed op on the report) on a mismatch.
  bool check(const std::string& op, const std::string& value);

 private:
  const Options& options_;
  Report& report_;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::string> first_;
};

/// Formats a double with every digit, for exact output comparison.
[[nodiscard]] std::string exact(double value);

/// Tree nodes of a forest, counted from its RandomForest::save output.
[[nodiscard]] std::size_t forestNodes(const sca::ml::RandomForest& forest);

// ------------------------------------------------------------ tracing --

/// A span around one call into a layer's public function, in category
/// "layer", that also credits `work` units to the layer when it closes.
class Layer {
 public:
  explicit Layer(std::string_view name, double work = 0.0);
  ~Layer();
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  void addWork(double work) { work_ += work; }

 private:
  sca::obs::Span span_;
  std::string name_;
  double work_;
};

struct LayerRow {
  std::uint64_t calls = 0;
  double selfSeconds = 0.0;
  double work = 0.0;
  double callUsP50 = 0.0;  // median span duration, microseconds
};

using LayerTable = std::map<std::string, LayerRow>;

/// Per-layer table over the "layer" spans that started in [fromNs, toNs)
/// on the tracer clock: self seconds (computed with obs::spanHotspots
/// after the library's own spans are dropped and their children
/// re-parented), work, work/s and share of the window's layer self time.
/// Prints the table to stderr under `title`. A layer name is used in one
/// window only, so its work total belongs to that window.
LayerTable layerTable(const std::string& title, std::uint64_t fromNs,
                      std::uint64_t toNs);

/// Fills the per-layer metrics that follow from layer rows alone (times,
/// work rates, per-call medians) for the layers present in `rows`.
void addLayerMetrics(Report& report, const LayerTable& rows);

/// Steady-clock nanoseconds on the tracer's clock.
[[nodiscard]] std::uint64_t traceNow();

/// Drops recorded spans and work so the next traced region starts clean.
void resetTrace();

/// Writes the trace through the SCA_TRACE writer; a failure only warns.
void flushTrace();

// ---------------------------------------------------------- workloads --
// Each runs one workload for options.seconds (or, traced, one traced
// pass) and returns its report. experiment.cpp and serve.cpp.

[[nodiscard]] Report runAttribution(const Options& options);
[[nodiscard]] Report runBinary(const Options& options);
[[nodiscard]] Report runServe(const Options& options);

}  // namespace perfbench
