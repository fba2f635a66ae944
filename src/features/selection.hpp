// Information-gain feature selection (as in Caliskan-Islam et al., who
// prune their ~120k-dimensional feature space with WEKA's InfoGain filter
// before training the random forest).
//
// Each feature is scored by the information gain of a binary split at its
// training mean; the top-k features are kept.
#pragma once

#include <cstddef>
#include <vector>

namespace sca::features {

class FeatureSelector {
 public:
  /// Scores features on (x, y) and keeps the `k` highest-gain columns.
  /// If k >= dimension or k == 0, selection is the identity. Throws
  /// std::invalid_argument when x and y differ in length or a row is
  /// narrower than x[0].
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<int>& y, std::size_t k);

  /// Rebuilds a selector from explicit column indices (deserialization);
  /// an empty list is the identity. Gains are not restored.
  static FeatureSelector fromIndices(std::vector<std::size_t> indices);

  /// Projects one vector onto the selected columns. Throws
  /// std::invalid_argument when `vec` lacks a selected column.
  [[nodiscard]] std::vector<double> apply(
      const std::vector<double>& vec) const;

  [[nodiscard]] std::vector<std::vector<double>> applyAll(
      const std::vector<std::vector<double>>& x) const;

  /// Selected column indices in descending gain order.
  [[nodiscard]] const std::vector<std::size_t>& selected() const noexcept {
    return selected_;
  }

  /// Gain score of every original column (after fit).
  [[nodiscard]] const std::vector<double>& gains() const noexcept {
    return gains_;
  }

  [[nodiscard]] bool identity() const noexcept { return selected_.empty(); }

 private:
  std::vector<std::size_t> selected_;  // empty => identity
  std::vector<double> gains_;
  std::size_t width_ = 0;  // largest selected index + 1
};

/// Shannon entropy (nats) of an integer label vector.
[[nodiscard]] double labelEntropy(const std::vector<int>& y);

}  // namespace sca::features
