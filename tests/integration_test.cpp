// End-to-end integration: a miniature version of the paper's full pipeline
// (corpus -> oracle -> transformation -> grouping -> 205-class retraining ->
// binary detection), asserting the qualitative relationships the paper
// reports rather than absolute numbers.
#include <gtest/gtest.h>

#include <set>

#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "llm/archetypes.hpp"
#include "ml/metrics.hpp"

namespace sca {
namespace {

core::ExperimentConfig smallConfig() {
  core::ExperimentConfig config;
  config.authorCount = 24;
  config.steps = 8;
  config.chatgptSetPerChallenge = 6;
  config.model.forest.treeCount = 40;
  config.model.selectTopK = 200;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static core::YearExperiment& experiment() {
    static core::YearExperiment instance(2018, smallConfig());
    return instance;
  }
};

TEST_F(PipelineTest, OracleBeatsChanceByWideMargin) {
  // 24 classes => chance is ~4.2%. The oracle must be far above it on a
  // held-out challenge (leave-one-challenge-out baseline).
  const std::vector<double> baseline = experiment().baselineFoldAccuracies();
  ASSERT_EQ(baseline.size(), 8u);
  double mean = 0.0;
  for (const double a : baseline) mean += a;
  mean /= 8.0;
  EXPECT_GT(mean, 0.5) << "oracle mean accuracy " << mean;
}

TEST_F(PipelineTest, StyleCountsNeverExceedArchetypePool) {
  const auto counts = experiment().styleCounts();
  // The paper's headline constraint: at most 12 styles are ever observed.
  EXPECT_LE(counts.maxCount, llm::kArchetypeCount);
}

TEST_F(PipelineTest, DiversityIsSkewed) {
  const auto rows = experiment().diversity(1);
  ASSERT_FALSE(rows.empty());
  // Top label carries a disproportionate share (2018 shape: top-3 ~ 2/3).
  double topThree = 0.0;
  for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
    topThree += rows[i].percent;
  }
  EXPECT_GT(topThree, 40.0);
}

TEST_F(PipelineTest, FeatureBasedBeatsNaiveOnChatGptRecognition) {
  const auto naive = experiment().attribution(core::Approach::Naive);
  const auto featureBased =
      experiment().attribution(core::Approach::FeatureBased);
  // The paper's central comparison (Tables VIII vs IX): grouping by style
  // features recognizes transformed ChatGPT code at least as often as the
  // naive first-response set. At this reduced scale (24 authors: a single
  // archetype twin, so the competition that sinks the naive set barely
  // exists) we allow one fold of slack; the full-scale relationship is
  // regenerated by paper_sweep's table08/09 emitters (EXPERIMENTS.md).
  EXPECT_GE(featureBased.chatgptCorrectPercent + 12.5 + 1e-9,
            naive.chatgptCorrectPercent)
      << "naive " << naive.chatgptCorrectPercent << " vs feature-based "
      << featureBased.chatgptCorrectPercent;
  EXPECT_GE(featureBased.chatgptCorrectPercent, 50.0);
  // Adding the 205th class must not destroy overall accuracy.
  EXPECT_GT(featureBased.meanAccuracy, 0.4);
}

TEST_F(PipelineTest, BinaryDetectionWellAboveChance) {
  const auto result = core::binaryIndividual(experiment());
  EXPECT_GT(result.meanAccuracy, 0.7)
      << "binary mean accuracy " << result.meanAccuracy;
}

TEST(PipelineDeterminism, WholeYearReproducesExactly) {
  core::ExperimentConfig config;
  config.authorCount = 10;
  config.steps = 4;
  config.chatgptSetPerChallenge = 3;
  config.model.forest.treeCount = 20;
  config.model.selectTopK = 120;
  core::YearExperiment a(2019, config);
  core::YearExperiment b(2019, config);
  EXPECT_EQ(a.oracleLabels(), b.oracleLabels());
  const auto ra = a.attribution(core::Approach::FeatureBased);
  const auto rb = b.attribution(core::Approach::FeatureBased);
  EXPECT_EQ(ra.targetLabel, rb.targetLabel);
  EXPECT_DOUBLE_EQ(ra.meanAccuracy, rb.meanAccuracy);
  for (std::size_t i = 0; i < ra.folds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.folds[i].accuracy205, rb.folds[i].accuracy205);
  }
}

}  // namespace
}  // namespace sca
