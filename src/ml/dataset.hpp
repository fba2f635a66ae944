// Dense labelled dataset for the classifiers: owned feature rows and their
// class labels.
#pragma once

#include <cstddef>
#include <vector>

namespace sca::ml {

struct Dataset {
  std::vector<std::vector<double>> x;  // one feature row per sample
  std::vector<int> y;                  // class labels, contiguous from 0

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return x.empty() ? 0 : x[0].size();
  }
  [[nodiscard]] int classCount() const;

  /// Checks that every row has the same width, that there is one label
  /// per row and that no label is negative; throws on violation.
  void validate() const;
};

}  // namespace sca::ml
