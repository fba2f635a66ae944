// QuantileSketch: a deterministic, mergeable log-bucketed histogram.
//
// The metrics registry's Histogram answers "how many observations fell in
// these hand-picked buckets"; serving SLOs need the inverse question —
// "what latency did the 99th percentile request see" — without picking
// bucket bounds per metric up front. A QuantileSketch buckets values on a
// geometric grid (DDSketch-style): bucket i covers (gamma^(i-1), gamma^i]
// with gamma = (1+alpha)/(1-alpha), so any reported quantile is within
// relative error `alpha` of the true order statistic.
//
// Determinism is the design constraint, same as the registry's shards:
//
//   * bucket counts are INTEGERS, so merging two sketches is bucket-wise
//     integer addition — associative, commutative, and independent of
//     merge order and thread count;
//   * no floating accumulator crosses a merge (no running sum/mean): the
//     only doubles kept are exact min/max, which are order-independent;
//   * toJson() renders buckets in ascending index order with fixed number
//     formatting, so two sketches holding the same observations serialize
//     byte-identically no matter how the observations were sharded.
//
// Values <= kMinValue (including all non-positive values) land in a
// dedicated zero bucket whose representative is 0.0 — queue depths of
// zero and un-retried requests are common and must not distort the grid.
//
// SketchRegistry is the process-global named-sketch store that the run
// record snapshots ("sketches" section, schema sca-run-v1). Local
// sketches (e.g. one serve loop's) fold in via merge() — the same
// fold-at-the-end discipline the serve loop uses for shard events.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace sca::obs {

class QuantileSketch {
 public:
  /// Values at or below this observe into the zero bucket.
  static constexpr double kMinValue = 1e-9;

  explicit QuantileSketch(double relativeAccuracy = 0.01);

  void observe(double value);
  /// Bucket-wise integer merge; `other` may use a different accuracy only
  /// if it is empty (mixed grids cannot merge meaningfully — ignored with
  /// the counts of `other` dropped would lie, so mismatched non-empty
  /// merges are a no-op by contract and callers keep one alpha per name).
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double relativeAccuracy() const noexcept { return alpha_; }
  /// Exact smallest/largest observed value (0.0 when empty).
  [[nodiscard]] double minValue() const noexcept;
  [[nodiscard]] double maxValue() const noexcept;

  /// The value at quantile q in [0,1], within `alpha` relative error,
  /// clamped to [minValue, maxValue]. An EMPTY sketch returns 0.0 for
  /// every q — callers render "--" off count()==0, never off a sentinel.
  [[nodiscard]] double quantile(double q) const;

  /// Full state, canonically formatted:
  ///   {"alpha":0.01,"count":7,"zero":1,"min":0.125,"max":40,
  ///    "buckets":[[-3,2],[5,4]]}
  [[nodiscard]] std::string toJson() const;
  /// Inverse of toJson (used by the manifest round-trip and serve-report).
  /// False on malformed input; `*out` is reset either way.
  [[nodiscard]] static bool fromJson(std::string_view json,
                                     QuantileSketch* out);

  /// The summary object manifests and the serve `stats` op embed:
  ///   {"count":7,"p50":1.125,"p90":...,"p99":...,"p999":...,
  ///    "min":...,"max":...}
  /// count==0 renders {"count":0} alone.
  [[nodiscard]] std::string percentilesJson() const;

 private:
  [[nodiscard]] int bucketIndex(double value) const;
  [[nodiscard]] double bucketValue(int index) const;

  double alpha_;
  double gamma_;
  double logGamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;
  std::map<int, std::uint64_t> buckets_;
};

/// Process-global named sketches, folded into the run record. Immortal
/// like MetricsRegistry::global(); all operations take one mutex — callers
/// batch via local sketches and merge() at phase boundaries, so this is
/// never on a per-observation hot path.
class SketchRegistry {
 public:
  [[nodiscard]] static SketchRegistry& global();

  /// Folds `sketch` into the named global sketch (created on first use
  /// with `sketch`'s accuracy).
  void merge(const std::string& name, const QuantileSketch& sketch);
  /// Single-value convenience for call sites without a local sketch.
  void observe(const std::string& name, double value,
               double relativeAccuracy = 0.01);

  [[nodiscard]] std::map<std::string, QuantileSketch> snapshot() const;
  /// Drops every named sketch (tests).
  void reset();

  /// The run record's "sketches" section: name-sorted
  ///   {"name":{"p50":...,...,"sketch":{<toJson>}},...}
  [[nodiscard]] std::string sketchesJson() const;

 private:
  SketchRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace sca::obs
