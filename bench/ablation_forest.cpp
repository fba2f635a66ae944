// Ablation: random-forest design choices — tree count and split mode
// (randomized thresholds vs exact CART sweep) against accuracy and fit
// time, on the 204-author GCJ 2018 task.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "ml/metrics.hpp"

int main() {
  sca::bench::Session session("ablation_forest");
  using namespace sca;
  using Clock = std::chrono::steady_clock;
  const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();
  core::YearExperiment experiment(2018, config);
  const corpus::YearDataset& data = experiment.corpusData();

  // One fold (hold out challenge 0).
  std::vector<std::string> trainSources, testSources;
  std::vector<int> trainLabels, testLabels;
  for (const corpus::CodeSample& sample : data.samples) {
    if (sample.challengeIndex == 0) {
      testSources.push_back(sample.source);
      testLabels.push_back(sample.authorId);
    } else {
      trainSources.push_back(sample.source);
      trainLabels.push_back(sample.authorId);
    }
  }

  struct Variant {
    std::string name;
    std::size_t trees;
    std::size_t thresholds;  // 0 = exact
  };
  const std::vector<Variant> variants = {
      {"10 trees, randomized", 10, 8},  {"40 trees, randomized", 40, 8},
      {"120 trees, randomized", 120, 8}, {"240 trees, randomized", 240, 8},
      {"40 trees, exact CART", 40, 0},  {"120 trees, exact CART", 120, 0},
  };

  util::TablePrinter table(
      "Ablation: forest size and split mode (204 authors, GCJ 2018, fold "
      "C1).");
  table.setHeader({"Variant", "Accuracy (%)", "Fit time (s)"});
  for (const Variant& variant : variants) {
    core::ModelConfig modelConfig = config.model;
    modelConfig.forest.treeCount = variant.trees;
    modelConfig.forest.tree.thresholdsPerFeature = variant.thresholds;
    const auto start = Clock::now();
    core::AttributionModel model(modelConfig);
    model.train(trainSources, trainLabels);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double accuracy =
        ml::accuracy(testLabels, model.predictAll(testSources));
    table.addRow({variant.name, bench::pct(accuracy),
                  util::formatDouble(seconds, 2)});
    std::cout << variant.name << " -> " << bench::pct(accuracy) << "% in "
              << util::formatDouble(seconds, 2) << "s\n";
  }
  bench::emit(table, "ablation_forest");
  session.complete();
  return 0;
}
