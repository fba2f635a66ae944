#include "features/selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sca::features {
namespace {

/// Each row's class as a dense rank in ascending label order, and the
/// number of rows in each class.
struct RankedLabels {
  std::vector<std::size_t> rank;   // per row
  std::vector<std::size_t> count;  // per class
};

RankedLabels rankLabels(const std::vector<int>& y) {
  std::vector<int> labels = y;
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  RankedLabels out;
  out.rank.reserve(y.size());
  out.count.assign(labels.size(), 0);
  for (const int label : y) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(labels.begin(), labels.end(), label) -
        labels.begin());
    out.rank.push_back(rank);
    ++out.count[rank];
  }
  return out;
}

/// One class's term of an entropy sum (nats); an empty class adds nothing.
/// Callers sum it over classes in ascending label order, which fixes the
/// rounding of every gain.
double entropyTerm(std::size_t count, std::size_t total) {
  if (count == 0) return 0.0;
  const double p = static_cast<double>(count) / static_cast<double>(total);
  return p * std::log(p);
}

double entropyOfCounts(const std::vector<std::size_t>& counts,
                       std::size_t total) {
  double h = 0.0;
  for (const std::size_t count : counts) h -= entropyTerm(count, total);
  return h;
}

}  // namespace

double labelEntropy(const std::vector<int>& y) {
  return entropyOfCounts(rankLabels(y).count, y.size());
}

void FeatureSelector::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<int>& y, std::size_t k) {
  selected_.clear();
  gains_.clear();
  width_ = 0;
  if (x.size() != y.size()) {
    throw std::invalid_argument("FeatureSelector::fit: " +
                                std::to_string(x.size()) + " rows but " +
                                std::to_string(y.size()) + " labels");
  }
  if (x.empty()) return;
  const std::size_t dims = x[0].size();
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i].size() < dims) {
      throw std::invalid_argument(
          "FeatureSelector::fit: row " + std::to_string(i) + " has " +
          std::to_string(x[i].size()) + " columns, row 0 has " +
          std::to_string(dims));
    }
  }
  if (k == 0 || k >= dims) return;  // identity

  const std::size_t n = x.size();
  const RankedLabels labels = rankLabels(y);
  const std::size_t classes = labels.count.size();

  // Column means in one row-major pass; each column is summed in row
  // order.
  std::vector<double> means(dims, 0.0);
  for (const std::vector<double>& row : x) {
    for (std::size_t d = 0; d < dims; ++d) means[d] += row[d];
  }
  for (double& mean : means) mean /= static_cast<double>(n);

  // below[c * dims + d]: rows of class c at or under column d's mean.
  std::vector<std::size_t> below(classes * dims, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t* counts = below.data() + labels.rank[i] * dims;
    const std::vector<double>& row = x[i];
    for (std::size_t d = 0; d < dims; ++d) {
      if (row[d] <= means[d]) ++counts[d];
    }
  }

  const double baseEntropy = entropyOfCounts(labels.count, n);
  gains_.resize(dims, 0.0);
  const double total = static_cast<double>(n);
  for (std::size_t d = 0; d < dims; ++d) {
    std::size_t belowCount = 0;
    for (std::size_t c = 0; c < classes; ++c) belowCount += below[c * dims + d];
    const std::size_t aboveCount = n - belowCount;
    double belowEntropy = 0.0;
    double aboveEntropy = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const std::size_t b = below[c * dims + d];
      belowEntropy -= entropyTerm(b, belowCount);
      aboveEntropy -= entropyTerm(labels.count[c] - b, aboveCount);
    }
    const double conditional =
        (static_cast<double>(belowCount) / total) * belowEntropy +
        (static_cast<double>(aboveCount) / total) * aboveEntropy;
    gains_[d] = baseEntropy - conditional;
  }

  std::vector<std::size_t> order(dims);
  for (std::size_t d = 0; d < dims; ++d) order[d] = d;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (gains_[a] != gains_[b]) return gains_[a] > gains_[b];
    return a < b;
  });
  order.resize(k);
  selected_ = std::move(order);
  width_ = *std::max_element(selected_.begin(), selected_.end()) + 1;
}

FeatureSelector FeatureSelector::fromIndices(
    std::vector<std::size_t> indices) {
  FeatureSelector selector;
  selector.selected_ = std::move(indices);
  for (const std::size_t idx : selector.selected_) {
    selector.width_ = std::max(selector.width_, idx + 1);
  }
  return selector;
}

std::vector<double> FeatureSelector::apply(
    const std::vector<double>& vec) const {
  if (identity()) return vec;
  if (vec.size() < width_) {
    throw std::invalid_argument(
        "FeatureSelector::apply: vector has " + std::to_string(vec.size()) +
        " columns, the selection reads column " + std::to_string(width_ - 1));
  }
  std::vector<double> out;
  out.reserve(selected_.size());
  for (const std::size_t idx : selected_) out.push_back(vec[idx]);
  return out;
}

std::vector<std::vector<double>> FeatureSelector::applyAll(
    const std::vector<std::vector<double>>& x) const {
  std::vector<std::vector<double>> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(apply(row));
  return out;
}

}  // namespace sca::features
