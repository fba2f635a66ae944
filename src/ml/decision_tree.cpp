#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace sca::ml {
namespace {

/// One Gini term: the squared proportion of `count` in `total`.
double square(double count, double total) {
  const double p = count / total;
  return p * p;
}

/// Candidates are scored in groups of kGroup, each sum in its own
/// register. Randomized mode pads its T thresholds to whole groups with
/// NaN, which no value is <=, and scores only the first T.
constexpr std::size_t kGroup = 8;

std::size_t wholeGroups(std::size_t thresholds) {
  return (thresholds + kGroup - 1) / kGroup * kGroup;
}

// Two doubles in one 16-byte register: GCC's and Clang's vector extension.
// At the x86-64 (SSE2) baseline, every plain C++ form of the threshold
// count compiles to one scalar compare per threshold; this form compiles
// to packed compares, two thresholds each.
using Pair = double __attribute__((vector_size(16)));
using PairBits = std::int64_t __attribute__((vector_size(16)));

/// Adds 1.0 to each lane of `tally` where x <= t; x holds one value twice.
void countLanes(Pair& tally, Pair x, Pair t) {
  const PairBits one = std::bit_cast<PairBits>(Pair{1.0, 1.0});
  tally += std::bit_cast<Pair>(std::bit_cast<PairBits>(x <= t) & one);
}

/// Adds `pair` to the two doubles at `at`, which need not be aligned.
void addPair(double* at, Pair pair) {
  Pair sum;
  std::memcpy(&sum, at, sizeof sum);
  sum += pair;
  std::memcpy(at, &sum, sizeof sum);
}

struct SplitCandidate {
  int feature = -1;
  std::size_t slot = 0;  // the feature's position in the draw
  double threshold = 0.0;
  double impurity = std::numeric_limits<double>::infinity();
};

/// The split search of one tree. A node is a [begin, end) range of one
/// index buffer holding the bootstrap; splitting a node partitions its
/// range stably, left side first, so every node keeps its samples in
/// bootstrap (ascending) order. All scratch is sized once per tree.
/// Counts are held as doubles, which are exact below 2^53.
///
/// Every Gini sum runs over the node's present classes only, in ascending
/// class order: an absent class would add exactly +0.0 to a sum of
/// squares, so each sum equals the sum over all classes bit for bit.
class NodeKernel {
 public:
  NodeKernel(const Dataset& data, const std::vector<std::size_t>& samples,
             std::size_t classCount, std::size_t mtry,
             const TreeConfig& config)
      : data_(data),
        config_(config),
        samples_(samples),
        labels_(samples.size()),
        counts_(classCount, 0.0),
        left_(std::max<std::size_t>(
                  1, wholeGroups(config.thresholdsPerFeature)) *
              classCount),
        leftTotals_(wholeGroups(config.thresholdsPerFeature)),
        thresholds_(wholeGroups(config.thresholdsPerFeature),
                    std::numeric_limits<double>::quiet_NaN()),
        block_(mtry * samples.size()),
        lo_(mtry),
        hi_(mtry),
        spill_(samples.size()) {
    present_.reserve(classCount);
    if (config.thresholdsPerFeature == 0) sorted_.resize(samples.size());
  }

  /// Makes [begin, end) the current node: gathers its labels, counts its
  /// classes, lists the present ones in ascending order and records its
  /// class runs. Returns the node's Gini impurity.
  double load(std::size_t begin, std::size_t end) {
    for (const int c : present_) counts_[static_cast<std::size_t>(c)] = 0.0;
    present_.clear();
    runs_.clear();
    begin_ = begin;
    size_ = end - begin;
    for (std::size_t j = 0; j < size_; ++j) {
      const int y = data_.y[samples_[begin + j]];
      labels_[j] = y;
      double& count = counts_[static_cast<std::size_t>(y)];
      if (count == 0.0) present_.push_back(y);
      count += 1.0;
      if (j > 0 && labels_[j - 1] != y) runs_.push_back({j, labels_[j - 1]});
    }
    if (size_ > 0) runs_.push_back({size_, labels_[size_ - 1]});
    std::sort(present_.begin(), present_.end());
    double sumSquares = 0.0;
    for (const int c : present_) {
      sumSquares += square(counts_[static_cast<std::size_t>(c)],
                           static_cast<double>(size_));
    }
    return 1.0 - sumSquares;
  }

  /// The first most frequent class of the current node.
  [[nodiscard]] int majority() const {
    int best = 0;
    double bestCount = 0.0;
    for (const int c : present_) {
      if (counts_[static_cast<std::size_t>(c)] > bestCount) {
        bestCount = counts_[static_cast<std::size_t>(c)];
        best = c;
      }
    }
    return best;
  }

  /// Best split of the current node over `features`, examined in draw
  /// order with the first strictly lowest weighted impurity winning. A
  /// feature constant in the node is skipped before any threshold is
  /// drawn. Randomized mode draws all of a feature's thresholds before
  /// counting them, which consumes `rng` exactly as one draw per
  /// evaluation would.
  SplitCandidate findSplit(const std::vector<std::size_t>& features,
                           util::Rng& rng) {
    gather(features);
    SplitCandidate best;
    for (std::size_t a = 0; a < features.size(); ++a) {
      if (!(hi_[a] > lo_[a])) continue;  // constant feature in this node
      const double* column = &block_[a * size_];
      const int f = static_cast<int>(features[a]);
      if (config_.thresholdsPerFeature == 0) {
        sweepMidpoints(column, f, a, best);
      } else {
        countThresholds(column, lo_[a], hi_[a], rng, f, a, best);
      }
    }
    return best;
  }

  /// Stably partitions the current node by `split`, left side first;
  /// returns the left side's size.
  std::size_t partition(const SplitCandidate& split) {
    const double* column = &block_[split.slot * size_];
    std::size_t* node = &samples_[begin_];
    std::size_t left = 0;
    std::size_t right = 0;
    for (std::size_t j = 0; j < size_; ++j) {
      if (column[j] <= split.threshold) {
        node[left++] = node[j];
      } else {
        spill_[right++] = node[j];
      }
    }
    std::copy_n(spill_.begin(), right, node + left);
    return left;
  }

 private:
  /// Consecutive samples of one class: [previous run's end, end).
  struct Run {
    std::size_t end;
    int label;
  };

  /// Copies the current node's values of the (at most mtry) drawn
  /// features into block_, one column each, reading each sample's row
  /// once, and takes each column's min and max in sample order.
  void gather(const std::vector<std::size_t>& features) {
    const std::size_t width = features.size();
    std::fill_n(lo_.begin(), width, std::numeric_limits<double>::infinity());
    std::fill_n(hi_.begin(), width, -std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j < size_; ++j) {
      const std::vector<double>& row = data_.x[samples_[begin_ + j]];
      for (std::size_t a = 0; a < width; ++a) {
        const double value = row[features[a]];
        block_[a * size_ + j] = value;
        lo_[a] = std::min(lo_[a], value);
        hi_[a] = std::max(hi_[a], value);
      }
    }
  }

  /// Randomized mode (Extra-Trees): T thresholds uniform in [lo, hi),
  /// their left histograms counted kGroup thresholds (four Pairs) per
  /// pass over the column, one class run at a time. A node lists its
  /// samples in row order and the corpora list each author's rows
  /// together, so a class is usually one run.
  void countThresholds(const double* column, double lo, double hi,
                       util::Rng& rng, int feature, std::size_t slot,
                       SplitCandidate& best) {
    const std::size_t stride = thresholds_.size();
    const std::size_t t = config_.thresholdsPerFeature;
    for (std::size_t k = 0; k < t; ++k) {
      thresholds_[k] = rng.uniformReal(lo, hi);
    }
    for (const int c : present_) {
      std::fill_n(&left_[static_cast<std::size_t>(c) * stride], stride, 0.0);
    }
    std::fill(leftTotals_.begin(), leftTotals_.end(), 0.0);
    for (std::size_t g = 0; g < stride; g += kGroup) {
      const Pair t0 = {thresholds_[g], thresholds_[g + 1]};
      const Pair t1 = {thresholds_[g + 2], thresholds_[g + 3]};
      const Pair t2 = {thresholds_[g + 4], thresholds_[g + 5]};
      const Pair t3 = {thresholds_[g + 6], thresholds_[g + 7]};
      std::size_t i = 0;
      for (const Run& run : runs_) {
        Pair n0{}, n1{}, n2{}, n3{};
        for (; i < run.end; ++i) {
          const Pair x = {column[i], column[i]};
          countLanes(n0, x, t0);
          countLanes(n1, x, t1);
          countLanes(n2, x, t2);
          countLanes(n3, x, t3);
        }
        double* cell = &left_[static_cast<std::size_t>(run.label) * stride + g];
        addPair(cell, n0);
        addPair(cell + 2, n1);
        addPair(cell + 4, n2);
        addPair(cell + 6, n3);
        addPair(&leftTotals_[g], n0);
        addPair(&leftTotals_[g + 2], n1);
        addPair(&leftTotals_[g + 4], n2);
        addPair(&leftTotals_[g + 6], n3);
      }
    }
    for (std::size_t g = 0; g < t; g += kGroup) {
      score<kGroup>(&left_[g], stride, &leftTotals_[g], &thresholds_[g],
                    std::min(kGroup, t - g), feature, slot, best);
    }
  }

  /// Exact mode (CART): the midpoints of the column's sorted distinct
  /// values in ascending order, each one's left side counted by a single
  /// sweep over the sorted column.
  void sweepMidpoints(const double* column, int feature, std::size_t slot,
                      SplitCandidate& best) {
    for (std::size_t j = 0; j < size_; ++j) {
      sorted_[j] = {column[j], labels_[j]};
    }
    const auto end = sorted_.begin() + static_cast<std::ptrdiff_t>(size_);
    std::sort(sorted_.begin(), end,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const int c : present_) left_[static_cast<std::size_t>(c)] = 0.0;
    std::size_t leftTotal = 0;
    double previous = sorted_[0].first;  // first value of the last run
    for (std::size_t q = 1; q < size_; ++q) {
      if (sorted_[q].first == previous) continue;
      const double threshold = 0.5 * (previous + sorted_[q].first);
      previous = sorted_[q].first;
      for (; leftTotal < size_ && sorted_[leftTotal].first <= threshold;
           ++leftTotal) {
        left_[static_cast<std::size_t>(sorted_[leftTotal].second)] += 1.0;
      }
      const auto leftSize = static_cast<double>(leftTotal);
      score<1>(left_.data(), 1, &leftSize, &threshold, 1, feature, slot,
               best);
    }
  }

  /// Scores a group of kWidth candidates of one column and keeps, in
  /// order, each of the first `count` that beats `best` strictly.
  /// Candidate k's left side holds leftTotals[k] samples, class c counted
  /// at left[c * stride + k]. The 2 * kWidth sums of squares run as
  /// independent chains, each adding its terms in ascending class order.
  template <std::size_t kWidth>
  void score(const double* left, std::size_t stride,
             const double* leftTotals, const double* thresholds,
             std::size_t count, int feature, std::size_t slot,
             SplitCandidate& best) {
    const double total = static_cast<double>(size_);
    // A side with no samples has Gini 0 and its sum goes unused; dividing
    // by 1 there keeps every term finite.
    std::array<double, kWidth> leftSide{};
    std::array<double, kWidth> rightSide{};
    for (std::size_t k = 0; k < kWidth; ++k) {
      leftSide[k] = std::max(leftTotals[k], 1.0);
      rightSide[k] = std::max(total - leftTotals[k], 1.0);
    }
    std::array<double, kWidth> leftSums{};
    std::array<double, kWidth> rightSums{};
    for (const int c : present_) {
      const double* cell = &left[static_cast<std::size_t>(c) * stride];
      const double all = counts_[static_cast<std::size_t>(c)];
      for (std::size_t k = 0; k < kWidth; ++k) {
        leftSums[k] += square(cell[k], leftSide[k]);
        rightSums[k] += square(all - cell[k], rightSide[k]);
      }
    }
    const auto minLeaf = static_cast<double>(config_.minSamplesLeaf);
    for (std::size_t k = 0; k < count; ++k) {
      const double leftTotal = leftTotals[k];
      const double rightTotal = total - leftTotal;
      if (leftTotal < minLeaf || rightTotal < minLeaf) continue;
      const double leftGini = leftTotal == 0.0 ? 0.0 : 1.0 - leftSums[k];
      const double rightGini = rightTotal == 0.0 ? 0.0 : 1.0 - rightSums[k];
      const double weighted =
          (leftTotal / total) * leftGini + (rightTotal / total) * rightGini;
      if (weighted < best.impurity) {
        best.impurity = weighted;
        best.feature = feature;
        best.slot = slot;
        best.threshold = thresholds[k];
      }
    }
  }

  const Dataset& data_;
  const TreeConfig& config_;
  std::vector<std::size_t> samples_;  // the bootstrap, partitioned per node
  std::size_t begin_ = 0;             // current node: samples_[begin_, +size_)
  std::size_t size_ = 0;
  std::vector<int> labels_;           // its labels, in sample order
  std::vector<Run> runs_;             // its class runs, in sample order
  std::vector<double> counts_;        // its class counts
  std::vector<int> present_;          // its classes with a count, ascending
  std::vector<double> left_;          // left counts, class-major
  std::vector<double> leftTotals_;    // left sizes, one per threshold
  std::vector<double> thresholds_;    // T, padded to whole groups
  std::vector<double> block_;         // drawn features' columns, mtry x size_
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<std::size_t> spill_;    // right side while partitioning
  std::vector<std::pair<double, int>> sorted_;  // exact mode's column
};

}  // namespace

void DecisionTree::fit(const Dataset& data,
                       const std::vector<std::size_t>& sampleIndices,
                       int classCount, const TreeConfig& config,
                       util::Rng rng) {
  nodes_.clear();
  width_ = 0;
  if (sampleIndices.empty() || classCount <= 0) {
    nodes_.push_back(Node{-1, 0.0, -1, -1, 0, 0});
    return;
  }
  const std::size_t rows = data.size();
  for (const std::size_t i : sampleIndices) {
    if (i >= rows) {
      throw std::invalid_argument(
          "decision tree: sample index " + std::to_string(i) +
          " outside a dataset of " + std::to_string(rows) + " rows");
    }
    if (data.y[i] < 0 || data.y[i] >= classCount) {
      throw std::invalid_argument(
          "decision tree: label " + std::to_string(data.y[i]) +
          " outside [0, " + std::to_string(classCount) + ")");
    }
  }
  const std::size_t dims = data.dimension();
  const std::size_t mtry =
      config.featuresPerSplit > 0
          ? std::min(config.featuresPerSplit, dims)
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(std::sqrt(
                       static_cast<double>(dims))));

  NodeKernel kernel(data, sampleIndices,
                    static_cast<std::size_t>(classCount), mtry, config);
  // Depth-first: children are appended after their parent and the right
  // child is split first.
  struct WorkItem {
    std::size_t begin;
    std::size_t end;
    int nodeIndex;
    int depth;
  };
  std::vector<WorkItem> stack;
  nodes_.push_back(Node{});
  stack.push_back(WorkItem{0, sampleIndices.size(), 0, 0});

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    Node& node = nodes_[static_cast<std::size_t>(item.nodeIndex)];
    node.depth = item.depth;

    const double nodeImpurity = kernel.load(item.begin, item.end);
    const bool stop =
        nodeImpurity <= 0.0 || item.end - item.begin < config.minSamplesSplit ||
        static_cast<std::size_t>(item.depth) >= config.maxDepth;
    if (stop) {
      node.label = kernel.majority();
      continue;
    }

    const SplitCandidate best =
        kernel.findSplit(rng.sampleIndices(dims, mtry), rng);
    if (best.feature < 0 || best.impurity >= nodeImpurity - 1e-12) {
      node.label = kernel.majority();
      continue;
    }
    const std::size_t middle = item.begin + kernel.partition(best);

    node.featureIndex = best.feature;
    node.threshold = best.threshold;
    const int leftIndex = static_cast<int>(nodes_.size());
    // NOTE: `node` may dangle after push_back; write through the index.
    nodes_[static_cast<std::size_t>(item.nodeIndex)].left = leftIndex;
    nodes_.push_back(Node{});
    nodes_[static_cast<std::size_t>(item.nodeIndex)].right = leftIndex + 1;
    nodes_.push_back(Node{});
    stack.push_back(
        WorkItem{item.begin, middle, leftIndex, item.depth + 1});
    stack.push_back(
        WorkItem{middle, item.end, leftIndex + 1, item.depth + 1});
  }
  width_ = requiredWidth(nodes_);
}

std::size_t DecisionTree::requiredWidth(const std::vector<Node>& nodes) {
  int widest = -1;
  for (const Node& node : nodes) widest = std::max(widest, node.featureIndex);
  return static_cast<std::size_t>(widest + 1);
}

int DecisionTree::predict(std::span<const double> features) const {
  if (features.size() < width_) {
    throw std::invalid_argument(
        "decision tree: row has " + std::to_string(features.size()) +
        " features, the tree splits on feature " + std::to_string(width_ - 1));
  }
  if (nodes_.empty()) return 0;
  std::size_t current = 0;
  while (true) {
    const Node& node = nodes_[current];
    if (node.featureIndex < 0) return node.label;
    current = static_cast<std::size_t>(
        features[static_cast<std::size_t>(node.featureIndex)] <= node.threshold
            ? node.left
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
      throw std::runtime_error("model load: truncated tree node list at node " +
                               std::to_string(i) + " of " +
                               std::to_string(count));
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
  tree.width_ = requiredWidth(tree.nodes_);
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
