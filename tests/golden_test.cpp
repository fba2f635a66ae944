// Golden digests that a refactor claiming identical behaviour must leave
// alone. They move when corpus rendering, the synthetic LLM, feature
// extraction or the forest changes any output byte.
//
//   * The one-shot mini pipeline — corpus -> Table II transform -> 60-tree
//     attribution model -> predict — the same pass that bench/micro_pipeline
//     runs under SCA_PIPELINE_ONCE=1. The expected line is what that bench
//     prints with no other SCA_* variable set, and the pass must move the
//     stable counters behind the committed perf baseline's digest
//     (tools/perf/seed_baseline.jsonl) by exactly that baseline's values.
//   * Tables IV, VIII, IX and X at the scaled bench config SCA_AUTHORS=16
//     SCA_STEPS=4 SCA_TREES=20, one digest per table over every value the
//     table prints.
//   * The fitted forest itself: the saved text of forests fitted in each
//     split mode from owned rows, an index view and a matrix-backed view,
//     and of tie-heavy forests whose split searches are decided by exact
//     ties and last-bit rounding. Two forests can score the same
//     accuracy; only this pins the trees.
//   * The feature matrix: fitted vocabularies and every transformed bit
//     over a small year slice plus edge sources, under each family switch
//     and a narrow vocabulary, and the selector's information gains.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "llm/pipelines.hpp"
#include "ml/matrix.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca {
namespace {

constexpr char kPipelineLine[] =
    "[pipeline] digest=93728f28931055d4 transformed=96 accuracy=1.000000";

// The stable counters of the baseline's digest, in this order.
constexpr std::array<const char*, 4> kStableCounters = {
    "features_analyze_calls", "ml_rows_predicted", "ml_trees_fitted",
    "rt_parallel_regions"};

std::array<std::uint64_t, 4> stableCounterValues() {
  std::array<std::uint64_t, 4> values{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = obs::MetricsRegistry::global().counterValue(kStableCounters[i]);
  }
  return values;
}

TEST(Golden, OneShotPipelineMatchesPinnedDigest) {
  // Deltas, not totals: the other tests in this process move them too.
  const std::array<std::uint64_t, 4> before = stableCounterValues();
  const corpus::YearDataset data = corpus::buildYearDataset(2018, 24);
  llm::BuildOptions options;  // explicit: no environment variable is read
  options.steps = 3;
  const llm::TransformedDataset transformed =
      llm::buildTransformedDataset(data, options);

  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : data.samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::ModelConfig config;
  config.forest.treeCount = 60;
  core::AttributionModel model(config);
  model.train(sources, labels);
  const std::vector<int> predictions = model.predictAll(sources);
  ASSERT_EQ(predictions.size(), labels.size());

  std::uint64_t digest = util::hash64("pipeline");
  for (const llm::TransformedSample& sample : transformed.samples) {
    digest = util::combine64(digest, util::hash64(sample.source));
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    digest = util::combine64(digest,
                             static_cast<std::uint64_t>(predictions[i]));
    if (predictions[i] == labels[i]) ++correct;
  }
  const double accuracy = static_cast<double>(correct) /
                          static_cast<double>(predictions.size());
  EXPECT_EQ("[pipeline] digest=" + util::toHex64(digest) +
                " transformed=" + std::to_string(transformed.samples.size()) +
                " accuracy=" + util::formatDouble(accuracy, 6),
            kPipelineLine);

  const std::array<std::uint64_t, 4> after = stableCounterValues();
  const std::array<std::uint64_t, 4> expected = {576, 192, 60, 7};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], expected[i]) << kStableCounters[i];
  }
}

std::uint64_t mix(std::uint64_t digest, double value) {
  return util::combine64(digest, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t mix(std::uint64_t digest, std::size_t value) {
  return util::combine64(digest, static_cast<std::uint64_t>(value));
}

/// Tables VIII and IX: fold accuracies and marks, the average row, the
/// ChatGPT set size and the target label.
std::uint64_t attributionDigest(
    std::uint64_t digest, const core::YearExperiment::AttributionResult& r) {
  for (const core::YearExperiment::AttributionFold& fold : r.folds) {
    digest = mix(digest, fold.accuracy205);
    digest = mix(digest, std::size_t{fold.chatgptCorrect});
    digest = mix(digest, std::size_t{fold.targetCorrect});
  }
  digest = mix(digest, r.meanAccuracy);
  digest = mix(digest, r.chatgptCorrectPercent);
  digest = mix(digest, r.targetCorrectPercent);
  digest = mix(digest, r.setSize);
  return util::combine64(digest, static_cast<std::uint64_t>(r.targetLabel));
}

// paper_sweep's table04/08/09/10 calls, with one YearExperiment per year
// shared across tables (every stage it caches is a pure function of the
// year and the config). The config is built here, not read from the
// environment, so a caller's SCA_* variables cannot move the digests.
TEST(Golden, TablesIvViiiIxXMatchPinnedDigests) {
  core::ExperimentConfig config;
  config.authorCount = 16;
  config.steps = 4;
  config.model.forest.treeCount = 20;

  std::vector<core::YearExperiment> years;
  years.reserve(3);
  for (const int year : {2017, 2018, 2019}) years.emplace_back(year, config);

  std::uint64_t table04 = util::hash64("table04");
  std::uint64_t table08 = util::hash64("table08");
  std::uint64_t table09 = util::hash64("table09");
  std::uint64_t table10 = util::hash64("table10");
  for (core::YearExperiment& year : years) {
    const core::YearExperiment::StyleCounts styles = year.styleCounts();
    for (const auto& counts : styles.perChallenge) {
      for (const std::size_t count : counts) table04 = mix(table04, count);
    }
    for (const double average : styles.averages) {
      table04 = mix(table04, average);
    }
    table04 = mix(table04, styles.maxCount);

    table08 = attributionDigest(table08,
                                year.attribution(core::Approach::Naive));
    table09 = attributionDigest(
        table09, year.attribution(core::Approach::FeatureBased));

    const core::BinaryIndividualResult binary = core::binaryIndividual(year);
    for (const double accuracy : binary.foldAccuracies) {
      table10 = mix(table10, accuracy);
    }
    table10 = mix(table10, binary.meanAccuracy);
  }
  const core::BinaryCombinedResult combined =
      core::binaryCombined({&years[0], &years[1], &years[2]});
  for (const auto& row : combined.perChallenge) {
    for (const double accuracy : row) table10 = mix(table10, accuracy);
  }
  for (const double mean : combined.means) table10 = mix(table10, mean);

  EXPECT_EQ(util::toHex64(table04), "9f45e6afcb7784eb");
  EXPECT_EQ(util::toHex64(table08), "94cfa445ee6b8677");
  EXPECT_EQ(util::toHex64(table09), "523f09957fb14402");
  EXPECT_EQ(util::toHex64(table10), "531d3f654962a93b");
}

/// 60 classes (class 7 has a single row) over 18 columns of three kinds:
/// mostly zero (constant inside many nodes), a few repeated levels (ties
/// at thresholds), and continuous noise around a per-class mean. Every
/// fourth row is a decoy that the training subset leaves out.
ml::Dataset forestEdgeCases() {
  util::Rng rng(2025);
  ml::Dataset data;
  for (int label = 0; label < 60; ++label) {
    const int rows = label == 7 ? 1 : 3 + label % 4;
    for (int r = 0; r < rows; ++r) {
      std::vector<double> row;
      for (int c = 0; c < 6; ++c) {
        row.push_back(rng.bernoulli(0.1) ? 1.0 + label % (c + 2) : 0.0);
        row.push_back(0.5 * static_cast<double>(
                                (label / (c + 1) + rng.uniformInt(0, 1)) % 5));
        row.push_back(0.1 * label + rng.normal(0.0, 1.0 + c));
      }
      data.x.push_back(std::move(row));
      data.y.push_back(label);
    }
  }
  return data;
}

/// 240 classes of 1-3 rows each, listed round-robin (every class's first
/// row, then every second row, then every third), so a node holds each
/// class as several runs. Every fifth class repeats its first row, and
/// most columns take few levels: a flag, its copy and its complement, the
/// class id mod 7, and a three-level count. Many candidates therefore tie
/// in exact impurity, within a column and across columns. Two continuous
/// columns keep the trees growing.
ml::Dataset forestTies() {
  util::Rng rng(17);
  std::vector<std::vector<std::vector<double>>> byClass(240);
  for (std::size_t label = 0; label < byClass.size(); ++label) {
    for (std::size_t r = 0; r < 1 + label % 3; ++r) {
      const double flag = rng.bernoulli(0.5) ? 1.0 : 0.0;
      byClass[label].push_back(
          {flag, flag, 1.0 - flag, static_cast<double>(label % 7),
           static_cast<double>(rng.uniformInt(0, 2)),
           0.01 * static_cast<double>(label) + rng.normal(0.0, 1.0),
           rng.normal(0.0, 1.0)});
    }
    if (label % 5 == 0) byClass[label].push_back(byClass[label][0]);
  }
  ml::Dataset data;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t label = 0; label < byClass.size(); ++label) {
      if (r >= byClass[label].size()) continue;
      data.x.push_back(byClass[label][r]);
      data.y.push_back(static_cast<int>(label));
    }
  }
  return data;
}

std::string forestDigest(const ml::Dataset& data,
                         const ml::ForestConfig& config) {
  ml::RandomForest forest(config);
  forest.fit(data);
  std::ostringstream text;
  forest.save(text);
  return util::toHex64(util::hash64(text.str()));
}

TEST(Golden, ForestFitMatchesPinnedStructure) {
  const ml::Dataset all = forestEdgeCases();
  std::vector<std::size_t> train;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 4 != 3 || all.y[i] == 7) train.push_back(i);
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "sca_golden_forest.mtx")
          .string();
  ml::MatrixWriter writer(all.dimension(), 1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    writer.appendRow(all.row(i), all.y[i], 0);
  }
  ASSERT_TRUE(writer.finish(path).isOk());
  auto opened = ml::MatrixFile::open(path, 1);
  ASSERT_TRUE(opened.ok()) << opened.status().toString();
  opened.value().setResidencyBudget(4096);  // evicts during the fit
  const ml::Dataset mapped = ml::Dataset::fromMatrix(opened.value());

  const ml::Dataset owned = all.subset(train);
  const ml::Dataset view = all.subsetView(train);
  const ml::Dataset matrixView = mapped.subsetView(train);

  ml::ForestConfig randomized;
  randomized.treeCount = 16;
  randomized.seed = 7;
  ml::ForestConfig exact = randomized;
  exact.tree.thresholdsPerFeature = 0;
  ml::ForestConfig shallow = randomized;
  shallow.tree.maxDepth = 6;
  shallow.tree.minSamplesLeaf = 2;

  const std::array<std::pair<const char*, ml::ForestConfig>, 3> modes = {{
      {"randomized", randomized}, {"exact", exact}, {"shallow", shallow}}};
  // Recorded with the per-threshold split search that the column kernel
  // in decision_tree.cpp replaced: the trees themselves must not move.
  const std::array<const char*, 3> expected = {
      "172d474b397134d1", "f6abedb2432cefbc", "a172f7c74dbde9d5"};
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const auto& [name, config] = modes[m];
    EXPECT_EQ(forestDigest(owned, config), expected[m]) << name << " owned";
    EXPECT_EQ(forestDigest(view, config), expected[m]) << name << " view";
    EXPECT_EQ(forestDigest(matrixView, config), expected[m])
        << name << " matrix";
  }
  std::filesystem::remove(path);

  // Tie-heavy forests: one threshold per feature, twelve (two groups of
  // eight, the second padded), no leaf minimum (a side may be empty),
  // every feature examined at each split, and exact mode with no leaf
  // minimum.
  const ml::Dataset ties = forestTies();
  ml::ForestConfig one = randomized;
  one.tree.thresholdsPerFeature = 1;
  ml::ForestConfig twelve = randomized;
  twelve.tree.thresholdsPerFeature = 12;
  ml::ForestConfig emptySide = randomized;
  emptySide.tree.minSamplesLeaf = 0;
  ml::ForestConfig everyFeature = randomized;
  everyFeature.tree.featuresPerSplit = ties.dimension();
  ml::ForestConfig exactEmptySide = exact;
  exactEmptySide.tree.minSamplesLeaf = 0;
  const std::array<std::pair<const char*, ml::ForestConfig>, 5> tieModes = {
      {{"ties T=1", one},
       {"ties T=12", twelve},
       {"ties leaf 0", emptySide},
       {"ties every feature", everyFeature},
       {"ties exact leaf 0", exactEmptySide}}};
  // Recorded with the scalar integer threshold count, before the two-lane
  // double count replaced it.
  const std::array<const char*, 5> tieExpected = {
      "51cf41caf48dc916", "628015cef1fd82f6", "ca687abec799cd72",
      "3f0b5bc8981156d3", "34cc0f2d0cbe7e4c"};
  for (std::size_t m = 0; m < tieModes.size(); ++m) {
    const auto& [name, config] = tieModes[m];
    EXPECT_EQ(forestDigest(ties, config), tieExpected[m]) << name;
  }
}

/// One small year slice plus sources at the edges of a feature record:
/// empty, no identifiers, no statements (so no bigrams), single-letter
/// identifiers, and acronym, snake_case and underscore-only names.
std::vector<std::string> featureCorpus() {
  const corpus::YearDataset data = corpus::buildYearDataset(2018, 5);
  std::vector<std::string> sources;
  for (const corpus::CodeSample& sample : data.samples) {
    sources.push_back(sample.source);
  }
  sources.push_back("");
  sources.push_back("#include <cstdio>\n// nothing but a comment\n\n");
  sources.push_back("using ll = long long;\nconst int kMaxN = 100;\n");
  sources.push_back(
      "int main() {\n  int a, b;\n  a = 1; b = a;\n  return a + b;\n}\n");
  sources.push_back(
      "struct HTTPServer { int x; };\n"
      "int parse_HTTPServer_config(int max_retry_count, int numTCPConns) {\n"
      "  int __ = 0;\n"
      "  if (max_retry_count > numTCPConns) return __;\n"
      "  return max_retry_count;\n}\n");
  return sources;
}

std::uint64_t matrixDigest(std::uint64_t digest,
                           const std::vector<std::vector<double>>& rows) {
  for (const std::vector<double>& row : rows) {
    digest = mix(digest, row.size());
    for (const double value : row) digest = mix(digest, value);
  }
  return digest;
}

std::uint64_t gainsDigest(const features::FeatureSelector& selector) {
  std::uint64_t digest = util::hash64("gains");
  for (const double gain : selector.gains()) digest = mix(digest, gain);
  for (const std::size_t index : selector.selected()) {
    digest = mix(digest, index);
  }
  return digest;
}

TEST(Golden, FeatureMatrixMatchesPinnedDigest) {
  const std::vector<std::string> sources = featureCorpus();

  features::ExtractorConfig noLexical;
  noLexical.useLexical = false;
  features::ExtractorConfig noLayout;
  noLayout.useLayout = false;
  features::ExtractorConfig noSyntactic;
  noSyntactic.useSyntactic = false;
  // Narrow enough that the maxTerms cut falls inside a document-frequency
  // tie, so the (freq desc, term asc) order decides the columns.
  features::ExtractorConfig narrow;
  narrow.identifierVocabulary = 5;
  narrow.bigramVocabulary = 3;

  const std::array<std::pair<const char*, features::ExtractorConfig>, 5>
      configs = {{{"default", features::ExtractorConfig{}},
                  {"no-lexical", noLexical},
                  {"no-layout", noLayout},
                  {"no-syntactic", noSyntactic},
                  {"narrow", narrow}}};
  // Recorded with the token-stream memo that the feature records replaced.
  const std::array<const char*, 5> expected = {
      "4d10361cce74667b", "27a4280f49f13b6a", "0e6cdf77d2d6afc4",
      "342a135fcc8cd7a2", "f35bb93211663bae"};
  std::vector<std::vector<double>> defaultMatrix;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto& [name, config] = configs[c];
    features::clearAnalysisCache();
    features::FeatureExtractor extractor(config);
    extractor.fit(sources);
    std::uint64_t digest = util::hash64(name);
    for (const std::string& term : extractor.identifierVocabulary().terms()) {
      digest = util::combine64(digest, util::hash64(term));
    }
    for (const std::string& term : extractor.bigramVocabulary().terms()) {
      digest = util::combine64(digest, util::hash64(term));
    }
    const std::vector<std::vector<double>> matrix =
        extractor.transformAll(sources);
    EXPECT_EQ(util::toHex64(matrixDigest(digest, matrix)), expected[c])
        << name;

    for (std::size_t i = 0; i < sources.size(); ++i) {
      const std::vector<double> uncached =
          extractor.transformUncached(sources[i]);
      EXPECT_EQ(uncached, matrix[i]) << name << " warm, source " << i;
      features::clearAnalysisCache();
      EXPECT_EQ(extractor.transform(sources[i]), uncached)
          << name << " cold, source " << i;
    }
    if (c == 0) defaultMatrix = matrix;
  }

  // Information gains: top-40 on two classes, and on sparse negative
  // labels over columns whose values include their own exact mean (the
  // "<= mean" side of the split).
  std::vector<int> twoClass;
  std::vector<int> sparse;
  constexpr std::array<int, 3> kSparseLabels = {-3, 7, 204};
  for (std::size_t i = 0; i < defaultMatrix.size(); ++i) {
    twoClass.push_back(static_cast<int>(i % 2));
    sparse.push_back(kSparseLabels[(i / 2) % 3]);
  }
  features::FeatureSelector binary;
  binary.fit(defaultMatrix, twoClass, 40);
  EXPECT_EQ(util::toHex64(gainsDigest(binary)), "c92852ccac7b9db5");

  // Column 0's levels 0/1/2 average exactly 1.0, so its level-1 rows sit
  // on the mean, and the labels differ by level: moving those rows to the
  // other side of the split changes the gain.
  std::vector<std::vector<double>> atMean;
  for (std::size_t i = 0; i < 12; ++i) {
    const double level = static_cast<double>(i % 3);
    atMean.push_back({level, 0.25 * static_cast<double>(i % 4), 5.0,
                      static_cast<double>(i) - 5.5,
                      defaultMatrix[i][defaultMatrix[i].size() / 2]});
  }
  const std::vector<int> atMeanLabels = {-3,  7,   204, -3, 7,   204,
                                         -3,  204, 204, 7,  204, -3};
  features::FeatureSelector negative;
  negative.fit(atMean, atMeanLabels, 3);
  EXPECT_EQ(util::toHex64(gainsDigest(negative)), "d417055aa371731b");

  features::FeatureSelector sparseFull;
  sparseFull.fit(defaultMatrix, sparse, 40);
  EXPECT_EQ(util::toHex64(gainsDigest(sparseFull)), "5fc4c10caf71cf01");
}

}  // namespace
}  // namespace sca
