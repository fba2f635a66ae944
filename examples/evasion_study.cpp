// Evasion study (the paper's RQ1): can the LLM's transformation mislead a
// pre-trained authorship model about who wrote a piece of code?
//
// Takes one author's solution, asks the synthetic LLM to transform it N
// times (non-chaining), and shows who the oracle attributes each rewrite
// to. In the paper this contradicts Ye et al.'s minimal-rewriting
// conjecture: the attribution flips away from the true author.
//
//   $ ./evasion_study [steps]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/attribution_model.hpp"
#include "corpus/dataset.hpp"
#include "llm/pipelines.hpp"

int main(int argc, char** argv) {
  using namespace sca;
  const std::size_t steps =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 10;

  std::cout << "Training a 40-author oracle on GCJ 2018...\n";
  const corpus::YearDataset corpus = corpus::buildYearDataset(2018, 40);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : corpus.samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::ModelConfig config;
  config.forest.treeCount = 80;
  core::AttributionModel oracle(config);
  oracle.train(sources, labels);

  // The victim: author A7's solution to the first challenge.
  const corpus::CodeSample* victim = nullptr;
  for (const corpus::CodeSample& sample : corpus.samples) {
    if (sample.authorId == 7 && sample.challengeIndex == 0) victim = &sample;
  }
  std::cout << "Original is by A7; oracle says: A"
            << oracle.predict(victim->source) << "\n\n";

  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 1234;
  llm::SyntheticLlm llm(options);
  const std::vector<std::string> rewrites =
      llm::nonChainingTransform(llm, victim->source, steps);

  std::size_t evaded = 0;
  std::cout << "step  predicted  confidence(A7)\n";
  for (std::size_t i = 0; i < rewrites.size(); ++i) {
    const int predicted = oracle.predict(rewrites[i]);
    const std::vector<double> votes = oracle.predictProba(rewrites[i]);
    if (predicted != 7) ++evaded;
    std::cout << std::setw(4) << (i + 1) << "  A" << std::setw(3)
              << predicted << "      " << std::fixed << std::setprecision(3)
              << votes[7] << "\n";
  }
  std::cout << "\nEvasion rate: " << evaded << "/" << rewrites.size()
            << " rewrites misattributed (paper: transformation reliably "
               "changes the predicted author).\n";
  return 0;
}
