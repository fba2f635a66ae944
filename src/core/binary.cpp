#include "core/binary.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "ml/metrics.hpp"
#include "obs/log.hpp"

namespace sca::core {
namespace {

struct BinaryRow {
  const std::string* source;
  int label;      // kHumanClass / kChatGptClass
  int challenge;  // 0-based
  int year;
};

/// Collects the balanced per-year binary rows: every transformed sample is
/// "ChatGPT"; an equal number of human samples per challenge is "human".
std::vector<BinaryRow> binaryRows(YearExperiment& year,
                                  std::size_t challengeLimit) {
  const corpus::YearDataset& corpusData = year.corpusData();
  const llm::TransformedDataset& transformed = year.transformedData();

  std::vector<BinaryRow> rows;
  std::vector<std::size_t> chatgptPerChallenge(
      corpusData.challenges.size(), 0);
  for (const llm::TransformedSample& sample : transformed.samples) {
    if (static_cast<std::size_t>(sample.challengeIndex) >= challengeLimit) {
      continue;
    }
    rows.push_back(BinaryRow{&sample.source, kChatGptClass,
                             sample.challengeIndex, year.year()});
    ++chatgptPerChallenge[static_cast<std::size_t>(sample.challengeIndex)];
  }
  // Balance: one human sample per (author, challenge) until the ChatGPT
  // count of that challenge is matched.
  std::vector<std::size_t> humanPerChallenge(corpusData.challenges.size(), 0);
  for (const corpus::CodeSample& sample : corpusData.samples) {
    const auto c = static_cast<std::size_t>(sample.challengeIndex);
    if (c >= challengeLimit) continue;
    if (humanPerChallenge[c] >= chatgptPerChallenge[c]) continue;
    rows.push_back(BinaryRow{&sample.source, kHumanClass,
                             sample.challengeIndex, year.year()});
    ++humanPerChallenge[c];
  }
  return rows;
}

/// Leave-one-challenge-out evaluation over prepared rows. Returns, for each
/// fold, the predictions alongside the test rows.
struct FoldOutcome {
  std::size_t challenge;
  std::vector<const BinaryRow*> testRows;
  std::vector<int> predicted;
};

std::vector<FoldOutcome> runFolds(const std::vector<BinaryRow>& rows,
                                  std::size_t challengeCount,
                                  const ModelConfig& modelConfig) {
  std::vector<FoldOutcome> outcomes;
  for (std::size_t held = 0; held < challengeCount; ++held) {
    std::vector<std::string> trainSources;
    std::vector<int> trainLabels;
    FoldOutcome outcome;
    outcome.challenge = held;
    std::vector<std::string> testSources;
    for (const BinaryRow& row : rows) {
      if (static_cast<std::size_t>(row.challenge) == held) {
        outcome.testRows.push_back(&row);
        testSources.push_back(*row.source);
      } else {
        trainSources.push_back(*row.source);
        trainLabels.push_back(row.label);
      }
    }
    obs::logEvent(obs::LogLevel::kInfo, "core", "binary_fold",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addUint("fold", held + 1);
                    fields.addUint("train", trainSources.size());
                    fields.addUint("test", testSources.size());
                  });
    AttributionModel model(modelConfig);
    model.train(trainSources, trainLabels);
    outcome.predicted = model.predictAll(testSources);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

double accuracyWhere(const FoldOutcome& outcome,
                     const std::function<bool(const BinaryRow&)>& keep) {
  std::size_t total = 0, hits = 0;
  for (std::size_t i = 0; i < outcome.testRows.size(); ++i) {
    const BinaryRow& row = *outcome.testRows[i];
    if (!keep(row)) continue;
    ++total;
    if (outcome.predicted[i] == row.label) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

BinaryIndividualResult binaryIndividual(YearExperiment& year) {
  const std::size_t challengeCount = year.corpusData().challenges.size();
  const std::vector<BinaryRow> rows = binaryRows(year, challengeCount);
  ModelConfig modelConfig = year.config().model;
  modelConfig.selectTopK = year.config().binarySelectTopK;
  const std::vector<FoldOutcome> outcomes =
      runFolds(rows, challengeCount, modelConfig);

  BinaryIndividualResult result;
  result.year = year.year();
  double sum = 0.0;
  for (const FoldOutcome& outcome : outcomes) {
    const double acc =
        accuracyWhere(outcome, [](const BinaryRow&) { return true; });
    result.foldAccuracies.push_back(acc);
    sum += acc;
  }
  result.meanAccuracy = sum / static_cast<double>(challengeCount);
  return result;
}

BinaryCombinedResult binaryCombined(std::vector<YearExperiment*> years,
                                    std::size_t challengesPerYear) {
  if (years.empty()) {
    throw std::invalid_argument("binaryCombined: no years given");
  }
  BinaryCombinedResult result;
  result.challengesPerYear = challengesPerYear;
  std::vector<BinaryRow> rows;
  for (YearExperiment* year : years) {
    result.years.push_back(year->year());
    const std::vector<BinaryRow> yearRows =
        binaryRows(*year, challengesPerYear);
    rows.insert(rows.end(), yearRows.begin(), yearRows.end());
  }

  ModelConfig modelConfig = years[0]->config().model;
  modelConfig.selectTopK = years[0]->config().binarySelectTopK;
  const std::vector<FoldOutcome> outcomes =
      runFolds(rows, challengesPerYear, modelConfig);

  std::array<double, 4> sums{};
  for (const FoldOutcome& outcome : outcomes) {
    std::array<double, 4> row{};
    for (std::size_t y = 0; y < result.years.size() && y < 3; ++y) {
      const int yearTag = result.years[y];
      row[y] = accuracyWhere(outcome, [yearTag](const BinaryRow& r) {
        return r.year == yearTag;
      });
    }
    row[3] = accuracyWhere(outcome, [](const BinaryRow&) { return true; });
    for (std::size_t c = 0; c < 4; ++c) sums[c] += row[c];
    result.perChallenge.push_back(row);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    result.means[c] = sums[c] / static_cast<double>(challengesPerYear);
  }
  return result;
}

}  // namespace sca::core
