// Ablation: which feature family carries attribution?
//
// Trains the 204-author oracle of GCJ 2018 with each family switched off
// (and alone), reporting leave-one-challenge-out accuracy. DESIGN.md §4.2
// calls out the three Caliskan-Islam families; this bench quantifies them.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "ml/metrics.hpp"

namespace {

using namespace sca;

double foldAccuracy(const corpus::YearDataset& data,
                    const core::ModelConfig& modelConfig) {
  // Two representative folds (not all 8) keep the sweep affordable.
  double sum = 0.0;
  int folds = 0;
  for (const std::size_t held : {std::size_t{0}, std::size_t{4}}) {
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
    core::AttributionModel model(modelConfig);
    model.train(trainSources, trainLabels);
    sum += ml::accuracy(testLabels, model.predictAll(testSources));
    ++folds;
  }
  return sum / folds;
}

}  // namespace

int main() {
  sca::bench::Session session("ablation_features");
  const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();
  core::YearExperiment experiment(2018, config);
  const corpus::YearDataset& data = experiment.corpusData();

  struct Variant {
    std::string name;
    bool lexical, layout, syntactic;
  };
  const std::vector<Variant> variants = {
      {"all families", true, true, true},
      {"no lexical", false, true, true},
      {"no layout", true, false, true},
      {"no syntactic", true, true, false},
      {"lexical only", true, false, false},
      {"layout only", false, true, false},
      {"syntactic only", false, false, true},
  };

  util::TablePrinter table(
      "Ablation: 204-author attribution accuracy (GCJ 2018, 2 folds) by "
      "feature family.");
  table.setHeader({"Variant", "Accuracy (%)", "Dimensions"});
  for (const Variant& variant : variants) {
    core::ModelConfig modelConfig = config.model;
    modelConfig.extractor.useLexical = variant.lexical;
    modelConfig.extractor.useLayout = variant.layout;
    modelConfig.extractor.useSyntactic = variant.syntactic;
    const double accuracy = foldAccuracy(data, modelConfig);
    features::FeatureExtractor probe(modelConfig.extractor);
    table.addRow({variant.name, sca::bench::pct(accuracy),
                  std::to_string(probe.dimension()) + "+vocab"});
    std::cout << variant.name << " -> " << sca::bench::pct(accuracy)
              << "%\n";
  }
  sca::bench::emit(table, "ablation_features");

  // Which individual features does the full model split on most?
  std::vector<std::string> trainSources;
  std::vector<int> trainLabels;
  for (const corpus::CodeSample& sample : data.samples) {
    if (sample.challengeIndex != 0) {
      trainSources.push_back(sample.source);
      trainLabels.push_back(sample.authorId);
    }
  }
  core::AttributionModel full(config.model);
  full.train(trainSources, trainLabels);
  std::cout << "Top-12 split features of the full oracle:\n";
  for (const auto& [name, importance] : full.topFeatures(12)) {
    std::cout << "  " << name << "  " << sca::bench::pct(importance, 2)
              << "%\n";
  }
  session.complete();
  return 0;
}
