#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "core/grouping.hpp"
#include "corpus/dataset.hpp"

namespace sca::core {
namespace {

/// Scaled-down config so the full pipeline runs in seconds on one core.
ExperimentConfig tinyConfig() {
  ExperimentConfig config;
  config.authorCount = 16;
  config.steps = 5;
  config.chatgptSetPerChallenge = 4;
  config.model.forest.treeCount = 30;
  config.model.selectTopK = 150;
  return config;
}

TEST(AttributionModel, LearnsTwoClearAuthors) {
  // Two authors with very different styles, 8 samples each.
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 2);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 30;
  AttributionModel model(config);
  model.train(sources, labels);
  const auto predictions = model.predictAll(sources);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++hits;
  }
  EXPECT_GE(hits, predictions.size() - 1);  // training-set accuracy
  EXPECT_EQ(model.classCount(), 2);
}

TEST(AttributionModel, TrainValidatesInput) {
  AttributionModel model;
  EXPECT_THROW(model.train({}, {}), std::invalid_argument);
  EXPECT_THROW(model.train({"int main(){}"}, {0, 1}), std::invalid_argument);
}

TEST(AttributionModel, ProbaHasClassDimension) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2018, 3);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 15;
  AttributionModel model(config);
  model.train(sources, labels);
  EXPECT_EQ(model.predictProba(sources[0]).size(), 3u);
}

TEST(AttributionModel, SaveLoadKeepsBehaviour) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 4);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 20;
  config.selectTopK = 100;
  AttributionModel model(config);
  model.train(sources, labels);

  std::stringstream buffer;
  model.save(buffer);
  const AttributionModel restored = AttributionModel::load(buffer);
  EXPECT_EQ(restored.classCount(), model.classCount());
  for (const std::string& source : sources) {
    EXPECT_EQ(restored.predict(source), model.predict(source));
    EXPECT_EQ(restored.predictProba(source), model.predictProba(source));
  }
}

TEST(AttributionModel, TopFeaturesAreNamedAndNormalized) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 6);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 25;
  config.selectTopK = 120;
  AttributionModel model(config);
  model.train(sources, labels);
  const auto top = model.topFeatures(10);
  ASSERT_EQ(top.size(), 10u);
  double previous = 1.0;
  for (const auto& [name, importance] : top) {
    EXPECT_FALSE(name.empty());
    EXPECT_GT(importance, 0.0);
    EXPECT_LE(importance, previous + 1e-12);
    previous = importance;
  }
}

/// `text` with whitespace-separated field `field` of the line that starts
/// at offset `at` replaced by `value`.
std::string withField(std::string text, std::size_t at, std::size_t field,
                      const std::string& value) {
  const std::size_t end = text.find('\n', at);
  std::istringstream in(text.substr(at, end - at));
  std::vector<std::string> fields;
  for (std::string f; in >> f;) fields.push_back(f);
  fields.at(field) = value;
  std::string line;
  for (const std::string& f : fields) line += (line.empty() ? "" : " ") + f;
  return text.replace(at, end - at, line);
}

TEST(AttributionModel, LoadRejectsCorruptStream) {
  std::stringstream bad("not-a-model v9");
  EXPECT_THROW(AttributionModel::load(bad), std::runtime_error);

  // Structural corruption of a real model file must fail closed with a
  // "model load:" error instead of crashing or hanging predict().
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 2);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 3;
  config.selectTopK = 0;  // identity selector: "selector 0"
  AttributionModel model(config);
  model.train(sources, labels);
  std::stringstream saved;
  model.save(saved);
  const std::string text = saved.str();
  const std::size_t root = text.find('\n', text.find("\ntree ") + 1) + 1;
  const std::size_t leaf = text.find("\n-1 ", text.find("\nforest ")) + 1;
  std::string selector = text;
  selector.replace(text.find("selector 0\n"), 11, "selector 1 99999999\n");
  std::string noClasses = text;
  noClasses.replace(text.find("\nforest 2 "), 10, "\nforest 0 ");

  for (const std::string& corrupt : {
           withField(text, root, 2, "99999999"),  // child out of range
           withField(text, root, 2, "0"),         // root is its own child
           withField(text, root, 0, "99999999"),  // split past the width
           withField(text, leaf, 4, "2"),         // label past classCount
           selector, noClasses}) {
    std::stringstream in(corrupt);
    try {
      (void)AttributionModel::load(in);
      ADD_FAILURE() << "corrupt model loaded";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind("model load: ", 0), 0u)
          << error.what();
    }
  }
}

TEST(AttributionModel, SaveFileLoadFileRoundTrip) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2018, 3);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 10;
  AttributionModel model(config);
  model.train(sources, labels);
  const std::string path = ::testing::TempDir() + "/sca_model.txt";
  model.saveFile(path);
  const AttributionModel restored = AttributionModel::loadFile(path);
  EXPECT_EQ(restored.predict(sources[0]), model.predict(sources[0]));
  EXPECT_THROW(AttributionModel::loadFile(path + ".missing"),
               std::runtime_error);
}

TEST(Grouping, FeatureBasedKeysOnModalLabel) {
  llm::TransformedDataset transformed;
  transformed.year = 2018;
  for (int c = 0; c < 2; ++c) {
    for (int step = 1; step <= 4; ++step) {
      llm::TransformedSample s;
      s.source = "int main() { return 0; }";
      s.challengeIndex = c;
      s.setting = llm::Setting::ChatGptNct;
      s.step = step;
      transformed.samples.push_back(std::move(s));
    }
  }
  // Labels: 7 (majority) for steps 1-3, 2 otherwise.
  std::vector<int> labels;
  for (int c = 0; c < 2; ++c) {
    labels.insert(labels.end(), {7, 7, 7, 2});
  }
  const ChatGptSet set =
      buildChatGptSet(transformed, labels, Approach::FeatureBased, 2);
  EXPECT_EQ(set.targetLabel, 7);
  EXPECT_EQ(set.sampleIndices.size(), 4u);  // 2 per challenge
  for (const std::size_t i : set.sampleIndices) {
    EXPECT_EQ(labels[i], 7);
  }
}

TEST(Grouping, NaiveTakesFirstResponses) {
  llm::TransformedDataset transformed;
  for (int step = 4; step >= 1; --step) {  // deliberately unsorted
    llm::TransformedSample s;
    s.source = "x";
    s.challengeIndex = 0;
    s.step = step;
    transformed.samples.push_back(std::move(s));
  }
  const std::vector<int> labels = {9, 9, 9, 9};
  const ChatGptSet set =
      buildChatGptSet(transformed, labels, Approach::Naive, 2);
  EXPECT_EQ(set.targetLabel, -1);
  ASSERT_EQ(set.sampleIndices.size(), 2u);
  // first responses = lowest steps = indices 3 (step 1) and 2 (step 2)
  EXPECT_EQ(transformed.samples[set.sampleIndices[0]].step +
                transformed.samples[set.sampleIndices[1]].step,
            3);
}

TEST(ExperimentConfig, EnvOverrides) {
  // The caller's values are put back at the end, so later tests in this
  // process see the environment they started with.
  const char* const names[] = {"SCA_AUTHORS", "SCA_STEPS", "SCA_SET",
                               "SCA_TREES", "SCA_TOPK"};
  std::vector<std::optional<std::string>> saved;
  for (const char* name : names) {
    const char* value = std::getenv(name);
    saved.push_back(value ? std::optional<std::string>(value) : std::nullopt);
    ::unsetenv(name);
  }

  ::setenv("SCA_AUTHORS", "33", 1);
  ::setenv("SCA_TREES", "44", 1);
  const ExperimentConfig config = ExperimentConfig::fromEnv();
  EXPECT_EQ(config.authorCount, 33u);
  EXPECT_EQ(config.model.forest.treeCount, 44u);
  ::unsetenv("SCA_AUTHORS");
  ::setenv("SCA_TREES", "", 1);  // empty still means unset
  const ExperimentConfig fresh = ExperimentConfig::fromEnv();
  EXPECT_EQ(fresh.authorCount, 204u);
  EXPECT_EQ(fresh.model.forest.treeCount, ModelConfig{}.forest.treeCount);

  // A malformed value throws, naming the variable and its value.
  const auto error = []() -> std::string {
    try {
      (void)ExperimentConfig::fromEnv();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const char* name : names) {
    for (const char* bad : {"16x", "abc", "0", "-1", "99999999999999999999"}) {
      ::setenv(name, bad, 1);
      EXPECT_NE(error().find(std::string(name) + "=" + bad), std::string::npos)
          << name << "=" << bad << ": " << error();
    }
    ::unsetenv(name);
  }

  for (std::size_t i = 0; i < saved.size(); ++i) {
    if (saved[i]) ::setenv(names[i], saved[i]->c_str(), 1);
  }
}

class YearExperimentTest : public ::testing::Test {
 protected:
  YearExperimentTest() : experiment_(2018, tinyConfig()) {}
  YearExperiment experiment_;
};

TEST_F(YearExperimentTest, StagesHaveConsistentShapes) {
  const corpus::YearDataset& data = experiment_.corpusData();
  EXPECT_EQ(data.samples.size(), 16u * 8u);
  const llm::TransformedDataset& transformed = experiment_.transformedData();
  EXPECT_EQ(transformed.samples.size(), 4u * 5u * 8u);
  const std::vector<int>& labels = experiment_.oracleLabels();
  EXPECT_EQ(labels.size(), transformed.samples.size());
  for (const int label : labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 16);
  }
}

TEST_F(YearExperimentTest, StyleCountsBounded) {
  const auto counts = experiment_.styleCounts();
  ASSERT_EQ(counts.perChallenge.size(), 8u);
  EXPECT_GT(counts.maxCount, 0u);
  for (const auto& row : counts.perChallenge) {
    for (const std::size_t c : row) {
      EXPECT_LE(c, 5u);  // never more styles than steps per setting
    }
  }
  for (const double avg : counts.averages) {
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 5.0);
  }
}

TEST_F(YearExperimentTest, DiversityRanksAndFilters) {
  const auto rows = experiment_.diversity(2);
  double totalPercent = 0.0;
  std::size_t previous = SIZE_MAX;
  for (const auto& row : rows) {
    EXPECT_LE(row.occurrences, previous);
    previous = row.occurrences;
    EXPECT_GE(row.occurrences, 2u);
    totalPercent += row.percent;
  }
  EXPECT_LE(totalPercent, 100.0 + 1e-9);
  // filtered + kept account for every distinct label
  const auto all = experiment_.diversity(1);
  EXPECT_EQ(all.size(), rows.size() + experiment_.diversityFilteredCount(2));
}

TEST_F(YearExperimentTest, AttributionProducesEightFolds) {
  const auto result = experiment_.attribution(Approach::FeatureBased);
  EXPECT_EQ(result.folds.size(), 8u);
  EXPECT_GE(result.targetLabel, 0);
  EXPECT_GT(result.setSize, 0u);
  EXPECT_GT(result.meanAccuracy, 0.3);  // tiny corpus, loose bound
  EXPECT_GE(result.chatgptCorrectPercent, 0.0);
  EXPECT_LE(result.chatgptCorrectPercent, 100.0);
  for (const auto& fold : result.folds) {
    EXPECT_GE(fold.accuracy205, 0.0);
    EXPECT_LE(fold.accuracy205, 1.0);
  }
}

TEST_F(YearExperimentTest, NaiveSetIgnoresLabels) {
  const auto naive = experiment_.attribution(Approach::Naive);
  EXPECT_EQ(naive.targetLabel, -1);
  EXPECT_EQ(naive.folds.size(), 8u);
}

TEST(Binary, IndividualBalancedAndAccurate) {
  YearExperiment experiment(2017, tinyConfig());
  const auto result = binaryIndividual(experiment);
  EXPECT_EQ(result.year, 2017);
  EXPECT_EQ(result.foldAccuracies.size(), 8u);
  EXPECT_GT(result.meanAccuracy, 0.5);  // must beat coin flip
}

TEST(Binary, CombinedCoversYearsAndAllColumn) {
  YearExperiment y2017(2017, tinyConfig());
  YearExperiment y2018(2018, tinyConfig());
  const auto result = binaryCombined({&y2017, &y2018}, 3);
  EXPECT_EQ(result.years, (std::vector<int>{2017, 2018}));
  EXPECT_EQ(result.perChallenge.size(), 3u);
  for (const auto& row : result.perChallenge) {
    // "All" column is a weighted combination; with equal sizes it lies
    // within [min, max] of the per-year accuracies.
    const double lo = std::min(row[0], row[1]);
    const double hi = std::max(row[0], row[1]);
    EXPECT_GE(row[3] + 1e-9, lo);
    EXPECT_LE(row[3] - 1e-9, hi);
  }
}

}  // namespace
}  // namespace sca::core
