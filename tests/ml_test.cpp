#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "ml/decision_tree.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace sca::ml {
namespace {

/// Three Gaussian-ish blobs in 2-D, trivially separable.
Dataset blobs(std::size_t perClass, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data;
  const double centers[3][2] = {{0, 0}, {5, 5}, {0, 5}};
  for (int label = 0; label < 3; ++label) {
    for (std::size_t i = 0; i < perClass; ++i) {
      data.x.push_back({centers[label][0] + rng.normal(0, 0.5),
                        centers[label][1] + rng.normal(0, 0.5)});
      data.y.push_back(label);
    }
  }
  return data;
}

/// The blobs plus a third column that also separates the classes, so the
/// trees split on feature 2 and need 3-column rows.
Dataset blobs3(std::size_t perClass, std::uint64_t seed) {
  Dataset data = blobs(perClass, seed);
  util::Rng rng(seed + 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.x[i].push_back(10.0 * data.y[i] + rng.normal(0, 0.5));
  }
  return data;
}

TEST(Dataset, ValidateCatchesShapeErrors) {
  Dataset ok = blobs(5, 1);
  EXPECT_NO_THROW(ok.validate());
  Dataset ragged = blobs(5, 1);
  ragged.x[0].push_back(9.0);
  EXPECT_THROW(ragged.validate(), std::invalid_argument);
  Dataset mismatched = blobs(5, 1);
  mismatched.y.pop_back();
  EXPECT_THROW(mismatched.validate(), std::invalid_argument);
}

TEST(Dataset, ClassCount) {
  EXPECT_EQ(blobs(3, 3).classCount(), 3);
  Dataset empty;
  EXPECT_EQ(empty.classCount(), 0);
}

TEST(DecisionTree, FitsSeparableDataPerfectly) {
  const Dataset data = blobs(30, 4);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(data, all, 3, TreeConfig{}, util::Rng(1));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.x[i]) == data.y[i]) ++hits;
  }
  EXPECT_EQ(hits, data.size());
  EXPECT_GT(tree.nodeCount(), 1u);
  EXPECT_GT(tree.leafCount(), 1u);

  // Fails closed on input that does not match the fit: a label past
  // `classCount`, a sample index past the dataset's last row, and a row
  // narrower than the widest split feature.
  DecisionTree narrow;
  EXPECT_THROW(narrow.fit(data, all, 2, TreeConfig{}, util::Rng(1)),
               std::invalid_argument);
  std::vector<std::size_t> pastEnd = all;
  pastEnd.push_back(data.size());
  EXPECT_THROW(narrow.fit(data, pastEnd, 3, TreeConfig{}, util::Rng(1)),
               std::invalid_argument);
  const Dataset wide = blobs3(30, 4);
  DecisionTree wideTree;
  wideTree.fit(wide, all, 3, TreeConfig{}, util::Rng(2));
  std::vector<double> splits(3, 0.0);
  wideTree.accumulateSplitCounts(splits);
  ASSERT_GT(splits[2], 0.0);
  EXPECT_EQ(wideTree.predict(wide.x[0]), wide.y[0]);
  EXPECT_THROW((void)wideTree.predict(data.x[0]), std::invalid_argument);
}

TEST(DecisionTree, ExactModeAlsoSeparates) {
  const Dataset data = blobs(30, 5);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeConfig config;
  config.thresholdsPerFeature = 0;  // exact sorted sweep
  DecisionTree tree;
  tree.fit(data, all, 3, config, util::Rng(2));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.x[i]) == data.y[i]) ++hits;
  }
  EXPECT_EQ(hits, data.size());
}

TEST(DecisionTree, MaxDepthLimitsGrowth) {
  const Dataset data = blobs(30, 6);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeConfig config;
  config.maxDepth = 1;
  DecisionTree tree;
  tree.fit(data, all, 3, config, util::Rng(3));
  EXPECT_LE(tree.depth(), 1u);
  EXPECT_LE(tree.nodeCount(), 3u);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset data;
  for (int i = 0; i < 10; ++i) {
    data.x.push_back({static_cast<double>(i)});
    data.y.push_back(0);
  }
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(data, all, 1, TreeConfig{}, util::Rng(4));
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_EQ(tree.predict({42.0}), 0);
}

TEST(RandomForest, HighAccuracyOnBlobs) {
  const Dataset data = blobs(40, 7);
  ForestConfig config;
  config.treeCount = 25;
  RandomForest forest(config);
  forest.fit(data);
  const auto predictions = forest.predictAll(data.x);
  EXPECT_GT(accuracy(data.y, predictions), 0.97);
  EXPECT_EQ(forest.classCount(), 3);
  EXPECT_EQ(forest.treeCount(), 25u);

  // A forest fitted on 3-column rows rejects 2-column ones on every path.
  RandomForest wide(config);
  wide.fit(blobs3(40, 7));
  EXPECT_THROW((void)wide.predict(data.x[0]), std::invalid_argument);
  EXPECT_THROW((void)wide.predictProba(data.x[0]), std::invalid_argument);
  EXPECT_THROW((void)wide.predictAll(data.x), std::invalid_argument);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  const Dataset data = blobs(20, 8);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 99;
  RandomForest a(config), b(config);
  a.fit(data);
  b.fit(data);
  const std::vector<double> probe = {2.5, 2.5};
  EXPECT_EQ(a.predict(probe), b.predict(probe));
  EXPECT_EQ(a.predictProba(probe), b.predictProba(probe));
}

TEST(RandomForest, ProbaSumsToOne) {
  const Dataset data = blobs(20, 9);
  RandomForest forest(ForestConfig{.treeCount = 15});
  forest.fit(data);
  const auto proba = forest.predictProba({0.1, 0.1});
  double sum = 0.0;
  for (const double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(proba.size(), 3u);
}

TEST(RandomForest, ThrowsOnEmptyDataset) {
  RandomForest forest;
  EXPECT_THROW(forest.fit(Dataset{}), std::invalid_argument);
}

TEST(RandomForest, StreamingPredictAllIsIdenticalToResidentPath) {
  const Dataset data = blobs(40, 7);
  ForestConfig config;
  config.treeCount = 25;
  RandomForest forest(config);
  forest.fit(data);
  const std::vector<int> resident = forest.predictAll(data.x);

  // The rows predicted block by block give the same votes for any block
  // size, from a default forest and from one capped at one thread.
  ForestConfig serial = config;
  serial.threads = 1;
  RandomForest serialForest(serial);
  serialForest.fit(data);
  for (const std::size_t rowsPerBlock : {1ul, 7ul, 64ul, 1000ul}) {
    std::vector<int> streamed;
    std::vector<int> serialVotes;
    for (std::size_t begin = 0; begin < data.size(); begin += rowsPerBlock) {
      const std::size_t end = std::min(data.size(), begin + rowsPerBlock);
      const std::vector<std::vector<double>> rows(
          data.x.begin() + static_cast<std::ptrdiff_t>(begin),
          data.x.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<int> votes = forest.predictAll(rows);
      streamed.insert(streamed.end(), votes.begin(), votes.end());
      const std::vector<int> more = serialForest.predictAll(rows);
      serialVotes.insert(serialVotes.end(), more.begin(), more.end());
    }
    EXPECT_EQ(streamed, resident) << rowsPerBlock << " rows per block";
    EXPECT_EQ(serialVotes, resident) << rowsPerBlock << " rows per block";
  }
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  const Dataset data = blobs(25, 12);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(data, all, 3, TreeConfig{}, util::Rng(5));
  std::stringstream buffer;
  tree.save(buffer);
  const DecisionTree restored = DecisionTree::load(buffer, 3, data.dimension());
  EXPECT_EQ(restored.nodeCount(), tree.nodeCount());
  for (const auto& row : data.x) {
    EXPECT_EQ(restored.predict(row), tree.predict(row));
  }
}

/// The message `load` throws, or "" when it returns.
template <typename Load>
std::string loadError(const Load& load) {
  try {
    load();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(DecisionTree, LoadRejectsGarbage) {
  std::stringstream bad("nonsense 3");
  EXPECT_THROW(DecisionTree::load(bad, 2, 2), std::runtime_error);
  std::stringstream truncated("tree 3\n1 0.5 1 2 -1 0\n-1 0 -1 -1 0 1\n");
  EXPECT_EQ(loadError([&] { (void)DecisionTree::load(truncated, 2, 2); }),
            "model load: truncated tree node list at node 2 of 3");

  // Structure: a split on feature 0 with two leaves loads and predicts...
  const std::string leaves = "-1 0 -1 -1 0 1\n-1 0 -1 -1 1 1\n";
  std::stringstream valid("tree 3\n0 0.5 1 2 -1 0\n" + leaves);
  const DecisionTree tree = DecisionTree::load(valid, 2, 1);
  EXPECT_EQ(tree.predict(std::vector<double>{0.2}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{0.9}), 1);
  EXPECT_THROW((void)tree.predict(std::vector<double>{}),
               std::invalid_argument);
  // ...while children that leave the tree or point back at their parent
  // (a cycle predict() would never leave), a feature index below -1, a
  // negative leaf label, and a label or split feature past the caller's
  // limits are all rejected.
  const auto rejects = [](const std::string& text, int classCount = 2,
                          std::size_t featureCount = 1) {
    std::stringstream in(text);
    EXPECT_THROW(DecisionTree::load(in, classCount, featureCount),
                 std::runtime_error)
        << text;
  };
  rejects("tree 3\n0 0.5 99999999 2 -1 0\n" + leaves);
  rejects("tree 3\n0 0.5 0 2 -1 0\n" + leaves);
  rejects("tree 3\n0 0.5 1 -1 -1 0\n" + leaves);
  rejects("tree 1\n-2 0 -1 -1 0 0\n");
  rejects("tree 1\n-1 0 -1 -1 -3 0\n");
  rejects("tree 3\n0 0.5 1 2 -1 0\n" + leaves, 1);
  rejects("tree 3\n0 0.5 1 2 -1 0\n" + leaves, 2, 0);
  // A child exactly one past the last node.
  std::stringstream pastLast("tree 2\n0 0.5 1 2 -1 0\n-1 0 -1 -1 0 1\n");
  EXPECT_EQ(loadError([&] { (void)DecisionTree::load(pastLast, 2, 1); }),
            "model load: invalid tree node 0");

  // The forest requires a positive class count, checks its trees' leaf
  // labels against it, and names the tree that broke.
  std::stringstream noClasses("forest 0 1\ntree 1\n-1 0 -1 -1 0 0\n");
  EXPECT_THROW(RandomForest::load(noClasses), std::runtime_error);
  const std::string leaf = "tree 1\n-1 0 -1 -1 0 0\n";
  std::stringstream labelPastClasses("forest 2 2\n" + leaf +
                                     "tree 1\n-1 0 -1 -1 2 0\n");
  EXPECT_EQ(loadError([&] { (void)RandomForest::load(labelPastClasses); }),
            "model load: invalid tree node 0 (tree 1 of 2)");
  std::stringstream missingTree("forest 2 3\n" + leaf + leaf);
  EXPECT_EQ(loadError([&] { (void)RandomForest::load(missingTree); }),
            "model load: bad tree header (tree 2 of 3)");
}

TEST(RandomForest, SaveLoadKeepsPredictions) {
  const Dataset data = blobs(20, 13);
  RandomForest forest(ForestConfig{.treeCount = 12});
  forest.fit(data);
  std::stringstream buffer;
  forest.save(buffer);
  const RandomForest restored = RandomForest::load(buffer);
  EXPECT_EQ(restored.classCount(), forest.classCount());
  EXPECT_EQ(restored.treeCount(), forest.treeCount());
  for (const auto& row : data.x) {
    EXPECT_EQ(restored.predict(row), forest.predict(row));
    EXPECT_EQ(restored.predictProba(row), forest.predictProba(row));
  }
}

TEST(RandomForest, FeatureImportancesNormalizedAndInformative) {
  // Feature 0 separates the blobs; feature 2 is constant noise.
  Dataset data = blobs(30, 14);
  for (auto& row : data.x) row.push_back(0.5);  // constant third column
  RandomForest forest(ForestConfig{.treeCount = 20});
  forest.fit(data);
  const auto importances = forest.featureImportances(3);
  ASSERT_EQ(importances.size(), 3u);
  double sum = 0.0;
  for (const double v : importances) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(importances[2], 0.0);  // constant column never splits
  EXPECT_GT(importances[0] + importances[1], 0.9);
}

TEST(Metrics, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 0, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
  // Discarded: the call throws before it returns a value.
  EXPECT_THROW((void)accuracy({1}, {}), std::invalid_argument);
}

TEST(Metrics, ConfusionMatrixCells) {
  const ConfusionMatrix cm(2, {0, 0, 1, 1}, {0, 1, 1, 1});
  EXPECT_EQ(cm.at(0, 0), 1u);
  EXPECT_EQ(cm.at(0, 1), 1u);
  EXPECT_EQ(cm.at(1, 1), 2u);
  EXPECT_DOUBLE_EQ(cm.recall(1), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(0), 0.5);
  EXPECT_NEAR(cm.precision(1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.f1(1), 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(cm.macroRecall(), 0.75);
}

TEST(Metrics, ConfusionValidatesRange) {
  EXPECT_THROW(ConfusionMatrix(2, {0, 2}, {0, 0}), std::out_of_range);
}

TEST(Metrics, PercentFormatting) {
  EXPECT_EQ(percent(0.931), "93.1");
  EXPECT_EQ(percent(1.0, 0), "100");
}

}  // namespace
}  // namespace sca::ml
