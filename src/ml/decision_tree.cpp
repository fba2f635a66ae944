#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace sca::ml {
namespace {

/// Gini impurity from class counts.
double gini(const std::vector<std::size_t>& counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sumSquares = 0.0;
  for (const std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sumSquares += p * p;
  }
  return 1.0 - sumSquares;
}

int majorityLabel(const std::vector<std::size_t>& counts) {
  int best = 0;
  std::size_t bestCount = 0;
  for (std::size_t label = 0; label < counts.size(); ++label) {
    if (counts[label] > bestCount) {
      bestCount = counts[label];
      best = static_cast<int>(label);
    }
  }
  return best;
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double impurity = std::numeric_limits<double>::infinity();
  std::size_t leftCount = 0;
};

}  // namespace

void DecisionTree::fit(const Dataset& data,
                       const std::vector<std::size_t>& sampleIndices,
                       int classCount, const TreeConfig& config,
                       util::Rng rng) {
  nodes_.clear();
  if (sampleIndices.empty() || classCount <= 0) {
    nodes_.push_back(Node{-1, 0.0, -1, -1, 0, 0});
    return;
  }
  const std::size_t dims = data.dimension();
  const std::size_t mtry =
      config.featuresPerSplit > 0
          ? std::min(config.featuresPerSplit, dims)
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(std::sqrt(
                       static_cast<double>(dims))));

  struct WorkItem {
    std::vector<std::size_t> samples;
    int nodeIndex;
    int depth;
  };
  std::vector<WorkItem> stack;
  nodes_.push_back(Node{});
  stack.push_back(WorkItem{sampleIndices, 0, 0});

  while (!stack.empty()) {
    WorkItem item = std::move(stack.back());
    stack.pop_back();
    Node& node = nodes_[static_cast<std::size_t>(item.nodeIndex)];
    node.depth = item.depth;

    std::vector<std::size_t> counts(static_cast<std::size_t>(classCount), 0);
    for (const std::size_t i : item.samples) {
      ++counts[static_cast<std::size_t>(data.y[i])];
    }
    const double nodeImpurity = gini(counts, item.samples.size());

    const bool stop =
        nodeImpurity <= 0.0 ||
        item.samples.size() < config.minSamplesSplit ||
        static_cast<std::size_t>(item.depth) >= config.maxDepth;
    if (stop) {
      node.label = majorityLabel(counts);
      continue;
    }

    // Candidate features for this node.
    std::vector<std::size_t> features = rng.sampleIndices(dims, mtry);
    SplitCandidate best;

    // Reused scratch buffers: allocating per candidate threshold dominated
    // the profile on wide label spaces (205 classes).
    std::vector<std::size_t> leftCounts(static_cast<std::size_t>(classCount));
    std::vector<std::size_t> rightCounts(static_cast<std::size_t>(classCount));

    for (const std::size_t f : features) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const std::size_t i : item.samples) {
        const double value = data.row(i)[f];
        lo = std::min(lo, value);
        hi = std::max(hi, value);
      }
      if (!(hi > lo)) continue;  // constant feature in this node

      auto evaluate = [&](double threshold) {
        std::fill(leftCounts.begin(), leftCounts.end(), 0);
        std::size_t leftTotal = 0;
        for (const std::size_t i : item.samples) {
          if (data.row(i)[f] <= threshold) {
            ++leftCounts[static_cast<std::size_t>(data.y[i])];
            ++leftTotal;
          }
        }
        const std::size_t rightTotal = item.samples.size() - leftTotal;
        if (leftTotal < config.minSamplesLeaf ||
            rightTotal < config.minSamplesLeaf) {
          return;
        }
        for (std::size_t c = 0; c < rightCounts.size(); ++c) {
          rightCounts[c] = counts[c] - leftCounts[c];
        }
        const double total = static_cast<double>(item.samples.size());
        const double weighted =
            (static_cast<double>(leftTotal) / total) *
                gini(leftCounts, leftTotal) +
            (static_cast<double>(rightTotal) / total) *
                gini(rightCounts, rightTotal);
        if (weighted < best.impurity) {
          best.impurity = weighted;
          best.feature = static_cast<int>(f);
          best.threshold = threshold;
          best.leftCount = leftTotal;
        }
      };

      if (config.thresholdsPerFeature == 0) {
        // Exact mode: sweep midpoints of sorted distinct values.
        std::vector<double> values;
        values.reserve(item.samples.size());
        for (const std::size_t i : item.samples) {
          values.push_back(data.row(i)[f]);
        }
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        for (std::size_t v = 1; v < values.size(); ++v) {
          evaluate(0.5 * (values[v - 1] + values[v]));
        }
      } else {
        for (std::size_t t = 0; t < config.thresholdsPerFeature; ++t) {
          evaluate(rng.uniformReal(lo, hi));
        }
      }
    }

    if (best.feature < 0 || best.impurity >= nodeImpurity - 1e-12) {
      node.label = majorityLabel(counts);
      continue;
    }

    std::vector<std::size_t> leftSamples;
    std::vector<std::size_t> rightSamples;
    leftSamples.reserve(best.leftCount);
    rightSamples.reserve(item.samples.size() - best.leftCount);
    for (const std::size_t i : item.samples) {
      if (data.row(i)[static_cast<std::size_t>(best.feature)] <=
          best.threshold) {
        leftSamples.push_back(i);
      } else {
        rightSamples.push_back(i);
      }
    }

    node.featureIndex = best.feature;
    node.threshold = best.threshold;
    const int leftIndex = static_cast<int>(nodes_.size());
    // NOTE: `node` may dangle after push_back; write through the index.
    nodes_[static_cast<std::size_t>(item.nodeIndex)].left = leftIndex;
    nodes_.push_back(Node{});
    nodes_[static_cast<std::size_t>(item.nodeIndex)].right =
        static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    stack.push_back(WorkItem{std::move(leftSamples), leftIndex,
                             item.depth + 1});
    stack.push_back(WorkItem{std::move(rightSamples),
                             nodes_[static_cast<std::size_t>(item.nodeIndex)].right,
                             item.depth + 1});
  }
}

int DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0;
  std::size_t current = 0;
  while (true) {
    const Node& node = nodes_[current];
    if (node.featureIndex < 0) return node.label;
    const double value =
        static_cast<std::size_t>(node.featureIndex) < features.size()
            ? features[static_cast<std::size_t>(node.featureIndex)]
            : 0.0;
    current = static_cast<std::size_t>(value <= node.threshold ? node.left
                                                               : node.right);
  }
}

void DecisionTree::save(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  os << std::setprecision(17);
  for (const Node& node : nodes_) {
    os << node.featureIndex << ' ' << node.threshold << ' ' << node.left
       << ' ' << node.right << ' ' << node.label << ' ' << node.depth
       << '\n';
  }
}

DecisionTree DecisionTree::load(std::istream& is, int classCount,
                                std::size_t featureCount) {
  std::string tag;
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "tree") {
    throw std::runtime_error("model load: bad tree header");
  }
  // fit() appends both children after their parent, so every tree it
  // writes has i < child < count; requiring that also rules out cycles.
  const auto childOk = [&](std::size_t i, int child) {
    const auto index = static_cast<std::size_t>(child);  // -1 wraps high
    return index > i && index < count;
  };
  DecisionTree tree;
  for (std::size_t i = 0; i < count; ++i) {
    Node node;
    if (!(is >> node.featureIndex >> node.threshold >> node.left >>
          node.right >> node.label >> node.depth)) {
      throw std::runtime_error("model load: truncated tree node list");
    }
    const bool valid =
        node.featureIndex < 0
            ? node.featureIndex == -1 && node.label >= 0 &&
                  node.label < classCount
            : static_cast<std::size_t>(node.featureIndex) < featureCount &&
                  childOk(i, node.left) && childOk(i, node.right);
    if (!valid) {
      throw std::runtime_error("model load: invalid tree node " +
                               std::to_string(i));
    }
    tree.nodes_.push_back(node);
  }
  return tree;
}

void DecisionTree::accumulateSplitCounts(std::vector<double>& counts) const {
  for (const Node& node : nodes_) {
    if (node.featureIndex >= 0 &&
        static_cast<std::size_t>(node.featureIndex) < counts.size()) {
      counts[static_cast<std::size_t>(node.featureIndex)] += 1.0;
    }
  }
}

std::size_t DecisionTree::leafCount() const noexcept {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.featureIndex < 0) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth() const noexcept {
  std::size_t depth = 0;
  for (const Node& node : nodes_) {
    depth = std::max(depth, static_cast<std::size_t>(node.depth));
  }
  return depth;
}

}  // namespace sca::ml
