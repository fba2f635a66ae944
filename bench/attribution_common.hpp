// Shared implementation of Tables VIII (naive) and IX (feature-based):
// the 205-author experiment — per-challenge fold accuracy, plus whether
// the held-out ChatGPT samples (and, for feature-based, the target
// author's samples) were classified correctly.
#pragma once

#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"

namespace sca::bench {

inline int runAttributionTable(core::Approach approach,
                               const std::string& romanNumeral,
                               const std::string& outputName) {
  Session session(outputName);
  const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();
  const bool featureBased = approach == core::Approach::FeatureBased;

  util::TablePrinter table(
      featureBased
          ? "Table " + romanNumeral + ": Accuracy (feature-based) for 205 "
            "authors per fold (C challenge, A average, T target label, F "
            "feature-based set; v correct / x incorrect)."
          : "Table " + romanNumeral + ": Accuracy (naive) for 205 authors "
            "per fold (C challenge, A average, N naive set; v correct / x "
            "incorrect).");
  std::vector<std::string> header = {"C"};
  for (const int year : {2017, 2018, 2019}) {
    header.push_back(std::to_string(year) + " 205");
    if (featureBased) {
      header.push_back("T");
      header.push_back("F");
    } else {
      header.push_back("N");
    }
  }
  table.setHeader(header);

  std::vector<core::YearExperiment::AttributionResult> results;
  for (const int year : {2017, 2018, 2019}) {
    core::YearExperiment experiment(year, config);
    results.push_back(experiment.attribution(approach));
  }

  const std::size_t folds = results[0].folds.size();
  for (std::size_t c = 0; c < folds; ++c) {
    std::vector<std::string> row = {"C" + std::to_string(c + 1)};
    for (const auto& result : results) {
      row.push_back(pct(result.folds[c].accuracy205));
      if (featureBased) {
        row.push_back(mark(result.folds[c].targetCorrect));
        row.push_back(mark(result.folds[c].chatgptCorrect));
      } else {
        row.push_back(mark(result.folds[c].chatgptCorrect));
      }
    }
    table.addRow(row);
  }
  table.addSeparator();
  std::vector<std::string> avg = {"A"};
  for (const auto& result : results) {
    avg.push_back(pct(result.meanAccuracy));
    if (featureBased) {
      avg.push_back(util::formatDouble(result.targetCorrectPercent, 1));
      avg.push_back(util::formatDouble(result.chatgptCorrectPercent, 1));
    } else {
      avg.push_back(util::formatDouble(result.chatgptCorrectPercent, 1));
    }
  }
  table.addRow(avg);
  emit(table, outputName);

  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "year " << (2017 + static_cast<int>(i))
              << ": ChatGPT set size " << results[i].setSize;
    if (featureBased) {
      std::cout << ", target label A" << results[i].targetLabel;
    }
    std::cout << "\n";
  }
  session.complete();
  return 0;
}

}  // namespace sca::bench
