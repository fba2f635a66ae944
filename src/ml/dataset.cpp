#include "ml/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace sca::ml {

int Dataset::classCount() const {
  int maxLabel = -1;
  for (const int label : y) maxLabel = std::max(maxLabel, label);
  return maxLabel + 1;
}

void Dataset::validate() const {
  if (size() != y.size()) {
    throw std::invalid_argument("dataset: |rows| != |y|");
  }
  const std::size_t dims = dimension();
  for (const auto& r : x) {
    if (r.size() != dims) {
      throw std::invalid_argument("dataset: ragged feature matrix");
    }
  }
  for (const int label : y) {
    if (label < 0) throw std::invalid_argument("dataset: negative label");
  }
}

}  // namespace sca::ml
