#include "ml/random_forest.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace sca::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {}

void RandomForest::fit(const Dataset& data) {
  obs::Span span("forest_fit", "ml");
  data.validate();
  if (data.size() == 0) throw std::invalid_argument("forest: empty dataset");
  // Tree count is configuration, not scheduling, so the counter is stable.
  static obs::Counter treesFitted =
      obs::MetricsRegistry::global().counter("ml_trees_fitted");
  treesFitted.add(config_.treeCount);
  classCount_ = data.classCount();
  trees_.assign(config_.treeCount, DecisionTree{});

  util::Rng root(config_.seed);
  // Pre-derive per-tree seeds so that fitting is deterministic regardless
  // of thread scheduling.
  std::vector<util::Rng> treeRngs;
  treeRngs.reserve(config_.treeCount);
  for (std::size_t t = 0; t < config_.treeCount; ++t) {
    treeRngs.push_back(root.derive(static_cast<std::uint64_t>(t)));
  }

  const std::size_t bootstrapSize = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.bootstrapFraction *
                                  static_cast<double>(data.size())));

  // Trees go through the shared pool (nested-guard aware: a forest fitted
  // inside one of core/experiments' parallel folds runs its trees serially
  // on that fold's worker). Seeds are pre-derived per tree, so scheduling
  // never matters.
  runtime::ParallelOptions options;
  options.maxWorkers = config_.threads;
  runtime::parallelFor(
      0, trees_.size(),
      [&](std::size_t t) {
        util::Rng rng = treeRngs[t];
        std::vector<std::uint32_t> draws(data.size(), 0);
        for (std::size_t i = 0; i < bootstrapSize; ++i) {
          ++draws[static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<std::int64_t>(data.size()) - 1))];
        }
        // The bootstrap is emitted in ascending row order, each row as
        // often as it was drawn: the sorted draw sequence, without a sort.
        // Ascending order turns every node's row accesses into a forward
        // scan of `data.x`. It cannot change the fitted tree: per-node
        // class counts, gini, feature min/max, the sorted exact sweep, and
        // the RNG draw order are all invariant under sample permutation,
        // and the partition step preserves whatever order it is given.
        std::vector<std::size_t> bootstrap;
        bootstrap.reserve(bootstrapSize);
        for (std::size_t row = 0; row < draws.size(); ++row) {
          bootstrap.insert(bootstrap.end(), draws[row], row);
        }
        trees_[t].fit(data, bootstrap, classCount_, config_.tree,
                      rng.derive("tree"));
      },
      options);
}

void RandomForest::save(std::ostream& os) const {
  os << "forest " << classCount_ << ' ' << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) tree.save(os);
}

RandomForest RandomForest::load(std::istream& is, std::size_t featureCount) {
  std::string tag;
  int classCount = 0;
  std::size_t treeCount = 0;
  if (!(is >> tag >> classCount >> treeCount) || tag != "forest" ||
      classCount <= 0) {
    throw std::runtime_error("model load: bad forest header");
  }
  RandomForest forest;
  forest.classCount_ = classCount;
  for (std::size_t t = 0; t < treeCount; ++t) {
    try {
      forest.trees_.push_back(
          DecisionTree::load(is, classCount, featureCount));
    } catch (const std::runtime_error& error) {
      throw std::runtime_error(std::string(error.what()) + " (tree " +
                               std::to_string(t) + " of " +
                               std::to_string(treeCount) + ")");
    }
  }
  return forest;
}

std::vector<double> RandomForest::featureImportances(
    std::size_t dimension) const {
  std::vector<double> counts(dimension, 0.0);
  for (const DecisionTree& tree : trees_) {
    tree.accumulateSplitCounts(counts);
  }
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total > 0.0) {
    for (double& c : counts) c /= total;
  }
  return counts;
}

std::vector<double> RandomForest::predictProba(
    std::span<const double> features) const {
  std::vector<double> votes(static_cast<std::size_t>(classCount_), 0.0);
  if (trees_.empty()) return votes;
  for (const DecisionTree& tree : trees_) {
    const int label = tree.predict(features);
    if (label >= 0 && label < classCount_) {
      votes[static_cast<std::size_t>(label)] += 1.0;
    }
  }
  for (double& v : votes) v /= static_cast<double>(trees_.size());
  return votes;
}

int RandomForest::predict(std::span<const double> features) const {
  const std::vector<double> votes = predictProba(features);
  if (votes.empty()) return 0;
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<int> RandomForest::predictAll(
    const std::vector<std::vector<double>>& rows) const {
  obs::Span span("forest_predict", "ml");
  static obs::Counter rowsPredicted =
      obs::MetricsRegistry::global().counter("ml_rows_predicted");
  rowsPredicted.add(rows.size());
  std::vector<int> out(rows.size(), 0);
  runtime::ParallelOptions options;
  options.maxWorkers = config_.threads;
  options.grain = 16;  // one row is microseconds; batch them
  runtime::parallelFor(
      0, rows.size(), [&](std::size_t i) { out[i] = predict(rows[i]); },
      options);
  return out;
}

}  // namespace sca::ml
