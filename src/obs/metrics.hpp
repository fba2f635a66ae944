// Unified metrics registry: the one place every layer's telemetry lands.
//
// Three instrument kinds, registered by name (find-or-create, any thread,
// any time):
//
//   * Counter    — monotone uint64, add(n). Merged by exact integer sum.
//   * Gauge      — double, either Sum (accumulates, e.g. simulated backoff
//                  seconds) or Max (high-water mark, e.g. pool queue depth).
//   * Histogram  — fixed bucket bounds set at registration; observe(v)
//                  lands in the first bucket whose upper bound >= v, with a
//                  trailing overflow bucket. Bucket counts are uint64.
//
// Recording is lock-free per thread: each thread owns a shard (a flat
// array of relaxed atomics written only by its owner), so hot paths never
// contend. snapshot() merges the shards deterministically — integer sums
// are exact and order-independent, so counter and histogram values are
// identical for every SCA_THREADS setting as long as the *events* are
// (which is the repo's standing determinism invariant).
//
// Stability tags partition the export: kStable instruments must be
// invariant across thread counts and appear in the run record's
// byte-comparable "metrics" section; kRuntime instruments (steal counts,
// queue depths, cache hit/miss splits, wall-clock phase seconds) are
// scheduling- or clock-dependent and are exported separately. Gauges are
// always runtime: merging doubles across shards is order-sensitive in
// floating point, so they can never be byte-stable.
//
// There is no reset: every value is a process-lifetime total, which is
// what the run record and flight dumps report. A
// reader that wants a delta stores a value and subtracts it later (the
// analysis memo's since-clear hit/miss stats do exactly that).
//
// The global registry is intentionally immortal (never destroyed), so
// worker threads detaching their shards during static teardown are safe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sca::obs {

enum class Stability { kStable, kRuntime };
enum class GaugeKind { kSum, kMax };

/// Gauges recorded under this name prefix are phase wall-times; the run
/// record strips the prefix into its "phases" section; an obs::Span in
/// obs::kPhaseCategory records through it.
inline constexpr std::string_view kPhaseGaugePrefix = "phase:";

class MetricsRegistry;

/// Cheap value handles (registry pointer + cell index). Default-constructed
/// handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  /// kSum gauges accumulate; kMax gauges keep the largest non-negative
  /// value ever recorded. Calling the wrong op for the kind is a no-op.
  void add(double value) const;
  void recordMax(double value) const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t cell, GaugeKind kind)
      : registry_(registry), cell_(cell), kind_(kind) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
  GaugeKind kind_ = GaugeKind::kSum;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t firstCell,
            const std::vector<double>* bounds)
      : registry_(registry), firstCell_(firstCell), bounds_(bounds) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t firstCell_ = 0;
  const std::vector<double>* bounds_ = nullptr;  // owned by the registry
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = overflow)
  [[nodiscard]] std::uint64_t total() const;
};

/// A merged view of the registry. Zero-valued instruments are omitted.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;            // kStable
  std::map<std::string, HistogramSnapshot> histograms;      // kStable
  std::map<std::string, std::uint64_t> runtimeCounters;
  std::map<std::string, HistogramSnapshot> runtimeHistograms;
  std::map<std::string, double> gauges;                     // always runtime
  [[nodiscard]] bool stableEmpty() const;
};

class MetricsRegistry {
 public:
  /// The process-global registry (created on first use, never destroyed).
  [[nodiscard]] static MetricsRegistry& global();

  /// Find-or-create by name. Re-registering an existing name returns the
  /// original instrument (the first registration's stability/kind/bounds
  /// win); re-registering under a different instrument type throws.
  [[nodiscard]] Counter counter(std::string_view name,
                                Stability stability = Stability::kStable);
  [[nodiscard]] Gauge gauge(std::string_view name,
                            GaugeKind kind = GaugeKind::kSum);
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds,
                                    Stability stability = Stability::kStable);

  /// Deterministic merge of all shards. Byte-stable for the kStable
  /// sections when the process is quiescent (no in-flight recorders).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Merged value of one counter (0 if never registered).
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const;

 private:
  struct Shard;
  struct ShardHandle;
  struct Instrument;
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void bumpCounterCell(std::uint32_t cell, std::uint64_t n);
  void recordGaugeCell(std::uint32_t cell, double value, GaugeKind kind);
  [[nodiscard]] Shard& localShard();
  void detachShard(Shard* shard);  // thread exit: fold into retired_

  struct Impl;
  Impl* impl_;  // immortal alongside the registry
};

/// Canonical JSON for the stable section — `{"counters":{...},
/// "histograms":{...}}`, keys sorted, fixed number formatting — the
/// byte-comparable object embedded in the run record.
[[nodiscard]] std::string stableMetricsJson(const MetricsSnapshot& snapshot);

/// JSON for the runtime section: `{"counters":{...},"gauges":{...},
/// "histograms":{...}}`.
[[nodiscard]] std::string runtimeMetricsJson(const MetricsSnapshot& snapshot);

}  // namespace sca::obs
