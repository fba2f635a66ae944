// Random forest (bagged CART trees, majority vote) — the classifier of
// Caliskan-Islam et al. that every experiment in the paper runs on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"

namespace sca::ml {

struct ForestConfig {
  std::size_t treeCount = 120;
  TreeConfig tree{};
  std::uint64_t seed = 17;
  /// Cap on concurrent fit/predict tasks in the shared runtime pool;
  /// 0 = no cap (pool size, i.e. SCA_THREADS or hardware concurrency).
  std::size_t threads = 0;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrapFraction = 1.0;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {});

  void fit(const Dataset& data);

  [[nodiscard]] int predict(std::span<const double> features) const;
  [[nodiscard]] int predict(const std::vector<double>& features) const {
    return predict(std::span<const double>(features));
  }
  /// One vote per row, in row order. Each vote is a pure function of its
  /// row and the trained trees, so the output is the same at any thread
  /// count and for any split of the rows into batches.
  [[nodiscard]] std::vector<int> predictAll(
      const std::vector<std::vector<double>>& rows) const;

  /// Per-class vote fractions for one sample (sums to 1).
  [[nodiscard]] std::vector<double> predictProba(
      std::span<const double> features) const;
  [[nodiscard]] std::vector<double> predictProba(
      const std::vector<double>& features) const {
    return predictProba(std::span<const double>(features));
  }

  [[nodiscard]] const ForestConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t treeCount() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] int classCount() const noexcept { return classCount_; }
  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }

  /// Text (de)serialization of a trained forest (trees + class count; the
  /// training hyperparameters are not needed for prediction). load()
  /// requires a positive class count and checks every tree against it and
  /// against `featureCount` (DecisionTree::load); a tree's error names the
  /// tree's index.
  void save(std::ostream& os) const;
  static RandomForest load(
      std::istream& is,
      std::size_t featureCount = std::numeric_limits<std::size_t>::max());

  /// Split-frequency feature importance: how often each feature is used as
  /// a split across the forest, L1-normalized. Cheap, and on stylometric
  /// vectors it tracks impurity-based importance closely.
  [[nodiscard]] std::vector<double> featureImportances(
      std::size_t dimension) const;

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  int classCount_ = 0;
};

}  // namespace sca::ml
