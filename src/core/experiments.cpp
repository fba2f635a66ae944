#include "core/experiments.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>

#include "ml/metrics.hpp"
#include "obs/log.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace sca::core {
namespace {

std::size_t envSize(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(raw, end, parsed);
  if (ec != std::errc() || ptr != end || parsed == 0) {
    throw std::invalid_argument(std::string(name) + "=" + raw +
                                ": expected a positive integer");
  }
  return parsed;
}

std::size_t settingIndex(llm::Setting setting) {
  switch (setting) {
    case llm::Setting::ChatGptNct: return 0;
    case llm::Setting::ChatGptCt: return 1;
    case llm::Setting::HumanNct: return 2;
    case llm::Setting::HumanCt: return 3;
  }
  return 0;
}

}  // namespace

ExperimentConfig ExperimentConfig::fromEnv() {
  ExperimentConfig config;
  config.authorCount = envSize("SCA_AUTHORS", config.authorCount);
  config.steps = envSize("SCA_STEPS", config.steps);
  config.chatgptSetPerChallenge =
      envSize("SCA_SET", config.chatgptSetPerChallenge);
  config.model.forest.treeCount =
      envSize("SCA_TREES", config.model.forest.treeCount);
  config.model.selectTopK = envSize("SCA_TOPK", config.model.selectTopK);
  return config;
}

YearExperiment::YearExperiment(int year, ExperimentConfig config)
    : year_(year), config_(config) {}

const corpus::YearDataset& YearExperiment::corpusData() {
  if (!corpus_.has_value()) {
    obs::logEvent(obs::LogLevel::kInfo, "core", "build_corpus",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addInt("year", year_);
                    fields.addUint("authors", config_.authorCount);
                  });
    runtime::PhaseTimer timer("corpus_build");
    corpus_ = corpus::buildYearDataset(year_, config_.authorCount);
  }
  return *corpus_;
}

const llm::TransformedDataset& YearExperiment::transformedData() {
  if (!transformed_.has_value()) {
    const corpus::YearDataset& data = corpusData();
    obs::logEvent(obs::LogLevel::kInfo, "core", "transform",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addInt("year", year_);
                    fields.addUint("steps", config_.steps);
                    fields.addUint("settings", llm::allSettings().size());
                    fields.addUint("challenges", data.challenges.size());
                  });
    runtime::PhaseTimer timer("llm_transform");
    transformed_ = llm::buildTransformedDataset(data, config_.steps);
  }
  return *transformed_;
}

const AttributionModel& YearExperiment::oracle() {
  if (oracle_ == nullptr) {
    const corpus::YearDataset& data = corpusData();
    std::vector<std::string> sources;
    std::vector<int> labels;
    sources.reserve(data.samples.size());
    labels.reserve(data.samples.size());
    for (const corpus::CodeSample& sample : data.samples) {
      sources.push_back(sample.source);
      labels.push_back(sample.authorId);
    }
    obs::logEvent(obs::LogLevel::kInfo, "core", "train_oracle",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addInt("year", year_);
                    fields.addUint("samples", sources.size());
                  });
    runtime::PhaseTimer timer("oracle_train");
    oracle_ = std::make_unique<AttributionModel>(config_.model);
    oracle_->train(sources, labels);
  }
  return *oracle_;
}

const std::vector<int>& YearExperiment::oracleLabels() {
  if (!oracleLabels_.has_value()) {
    const llm::TransformedDataset& transformed = transformedData();
    const AttributionModel& model = oracle();
    std::vector<std::string> sources;
    sources.reserve(transformed.samples.size());
    for (const llm::TransformedSample& sample : transformed.samples) {
      sources.push_back(sample.source);
    }
    obs::logEvent(obs::LogLevel::kInfo, "core", "label_transformed",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addInt("year", year_);
                    fields.addUint("samples", sources.size());
                  });
    runtime::PhaseTimer timer("oracle_predict");
    oracleLabels_ = model.predictAll(sources);
  }
  return *oracleLabels_;
}

std::vector<double> YearExperiment::baselineFoldAccuracies() {
  const corpus::YearDataset& data = corpusData();
  const std::size_t challengeCount = data.challenges.size();
  // Each fold trains an independent model, so folds run concurrently on
  // the shared pool; ordered collection keeps the per-challenge layout.
  return runtime::parallelMap<double>(challengeCount, [&](std::size_t held) {
    std::vector<std::string> trainSources, testSources;
    std::vector<int> trainLabels, testLabels;
    for (const corpus::CodeSample& sample : data.samples) {
      if (static_cast<std::size_t>(sample.challengeIndex) == held) {
        testSources.push_back(sample.source);
        testLabels.push_back(sample.authorId);
      } else {
        trainSources.push_back(sample.source);
        trainLabels.push_back(sample.authorId);
      }
    }
    AttributionModel model(config_.model);
    model.train(trainSources, trainLabels);
    return ml::accuracy(testLabels, model.predictAll(testSources));
  });
}

YearExperiment::StyleCounts YearExperiment::styleCounts() {
  const llm::TransformedDataset& transformed = transformedData();
  const std::vector<int>& labels = oracleLabels();
  const std::size_t challengeCount = corpusData().challenges.size();

  StyleCounts out;
  out.perChallenge.assign(challengeCount, {});
  std::vector<std::array<std::set<int>, 4>> distinct(challengeCount);
  for (std::size_t i = 0; i < transformed.samples.size(); ++i) {
    const llm::TransformedSample& sample = transformed.samples[i];
    distinct[static_cast<std::size_t>(sample.challengeIndex)]
            [settingIndex(sample.setting)]
                .insert(labels[i]);
  }
  std::array<double, 4> sums{};
  for (std::size_t c = 0; c < challengeCount; ++c) {
    for (std::size_t s = 0; s < 4; ++s) {
      const std::size_t count = distinct[c][s].size();
      out.perChallenge[c][s] = count;
      out.maxCount = std::max(out.maxCount, count);
      sums[s] += static_cast<double>(count);
    }
  }
  for (std::size_t s = 0; s < 4; ++s) {
    out.averages[s] = sums[s] / static_cast<double>(challengeCount);
  }
  return out;
}

std::vector<YearExperiment::DiversityRow> YearExperiment::diversity(
    std::size_t minOccurrences) {
  const std::vector<int>& labels = oracleLabels();
  std::map<int, std::size_t> histogram;
  for (const int label : labels) ++histogram[label];

  std::vector<DiversityRow> rows;
  for (const auto& [label, count] : histogram) {
    if (count < minOccurrences) continue;
    DiversityRow row;
    row.label = "A" + std::to_string(label);
    row.occurrences = count;
    row.percent = 100.0 * static_cast<double>(count) /
                  static_cast<double>(labels.size());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.occurrences != b.occurrences) return a.occurrences > b.occurrences;
    return a.label < b.label;
  });
  return rows;
}

std::size_t YearExperiment::diversityFilteredCount(
    std::size_t minOccurrences) {
  const std::vector<int>& labels = oracleLabels();
  std::map<int, std::size_t> histogram;
  for (const int label : labels) ++histogram[label];
  std::size_t filtered = 0;
  for (const auto& [label, count] : histogram) {
    if (count < minOccurrences) ++filtered;
  }
  return filtered;
}

YearExperiment::AttributionResult YearExperiment::attribution(
    Approach approach) {
  const corpus::YearDataset& data = corpusData();
  const llm::TransformedDataset& transformed = transformedData();
  const std::vector<int>& labels = oracleLabels();

  const ChatGptSet set = buildChatGptSet(
      transformed, labels, approach, config_.chatgptSetPerChallenge);
  const int chatgptClass = static_cast<int>(config_.authorCount);

  // 205-class corpus: every human sample + the ChatGPT set.
  struct Row {
    const std::string* source;
    int label;
    int challenge;
    bool isChatGpt;
  };
  std::vector<Row> rows;
  rows.reserve(data.samples.size() + set.sampleIndices.size());
  for (const corpus::CodeSample& sample : data.samples) {
    rows.push_back(Row{&sample.source, sample.authorId,
                       sample.challengeIndex, false});
  }
  for (const std::size_t i : set.sampleIndices) {
    const llm::TransformedSample& sample = transformed.samples[i];
    rows.push_back(
        Row{&sample.source, chatgptClass, sample.challengeIndex, true});
  }

  AttributionResult result;
  result.approach = approach;
  result.targetLabel = set.targetLabel;
  result.setSize = set.sampleIndices.size();

  const std::size_t challengeCount = data.challenges.size();
  // One task per held-out challenge; each trains its own 205-class model.
  // Ordered collection reproduces the serial C1..C8 fold order exactly.
  result.folds = runtime::parallelMap<AttributionFold>(
      challengeCount, [&](std::size_t held) {
        std::vector<std::string> trainSources;
        std::vector<int> trainLabels;
        std::vector<std::string> testSources;
        std::vector<int> testLabels;
        std::vector<bool> testIsChatGpt;
        for (const Row& row : rows) {
          if (static_cast<std::size_t>(row.challenge) == held) {
            testSources.push_back(*row.source);
            testLabels.push_back(row.label);
            testIsChatGpt.push_back(row.isChatGpt);
          } else {
            trainSources.push_back(*row.source);
            trainLabels.push_back(row.label);
          }
        }
        obs::logEvent(obs::LogLevel::kInfo, "core", "attribution_fold",
                      [&](util::JsonObjectBuilder& fields) {
                        fields.add("approach", approachName(approach));
                        fields.addInt("year", year_);
                        fields.addUint("fold", held + 1);
                        fields.addUint("train", trainSources.size());
                        fields.addUint("test", testSources.size());
                      });
        AttributionModel model(config_.model);
        model.train(trainSources, trainLabels);
        const std::vector<int> predicted = model.predictAll(testSources);

        AttributionFold fold;
        fold.challenge = static_cast<int>(held);
        fold.accuracy205 = ml::accuracy(testLabels, predicted);

        std::size_t chatgptTotal = 0, chatgptHits = 0;
        std::size_t targetTotal = 0, targetHits = 0;
        for (std::size_t i = 0; i < predicted.size(); ++i) {
          if (testIsChatGpt[i]) {
            ++chatgptTotal;
            if (predicted[i] == chatgptClass) ++chatgptHits;
          }
          if (set.targetLabel >= 0 && testLabels[i] == set.targetLabel) {
            ++targetTotal;
            if (predicted[i] == testLabels[i]) ++targetHits;
          }
        }
        // "Correctly classified" = a strict majority of the held-out samples
        // carry the right label; an even split is a failure to recognize.
        fold.chatgptTestCount = chatgptTotal;
        fold.chatgptCorrect =
            chatgptTotal > 0 && 2 * chatgptHits > chatgptTotal;
        fold.targetCorrect = targetTotal > 0 && 2 * targetHits > targetTotal;
        return fold;
      });

  std::size_t chatgptHitFolds = 0, targetHitFolds = 0;
  double accuracySum = 0.0;
  for (const AttributionFold& fold : result.folds) {
    if (fold.chatgptCorrect) ++chatgptHitFolds;
    if (fold.targetCorrect) ++targetHitFolds;
    accuracySum += fold.accuracy205;
  }
  result.meanAccuracy = accuracySum / static_cast<double>(challengeCount);
  result.chatgptCorrectPercent =
      100.0 * static_cast<double>(chatgptHitFolds) /
      static_cast<double>(challengeCount);
  result.targetCorrectPercent =
      100.0 * static_cast<double>(targetHitFolds) /
      static_cast<double>(challengeCount);
  return result;
}

}  // namespace sca::core
