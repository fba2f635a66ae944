// Shared implementation of Tables V-VII: the diversity of styles of one
// year — how often each predicted label was assigned to the 1,600
// ChatGPT-transformed samples, filtered at two occurrences as in the paper.
#pragma once

#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"

namespace sca::bench {

inline int runDiversityTable(int year, const std::string& romanNumeral,
                             const std::string& outputName) {
  Session session(outputName);
  core::YearExperiment experiment(year,
                                  core::ExperimentConfig::fromEnv());
  const auto rows = experiment.diversity(/*minOccurrences=*/2);
  const std::size_t filtered = experiment.diversityFilteredCount(2);

  util::TablePrinter table(
      "Table " + romanNumeral + ": The diversity of styles - GCJ " +
      std::to_string(year) + ". Labels with fewer than two occurrences are "
      "filtered (a total of " + std::to_string(filtered) + ").");
  table.setHeader({"Label", "Occurrences", "Percentage"});
  for (const auto& row : rows) {
    table.addRow({row.label, std::to_string(row.occurrences),
                  util::formatDouble(row.percent, 1)});
  }
  emit(table, outputName);

  double topShare = 0.0;
  for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
    topShare += rows[i].percent;
  }
  std::cout << "Top-1 share: "
            << (rows.empty() ? 0.0 : rows[0].percent) << "%, top-3 share: "
            << topShare << "%\n";
  session.complete();
  return 0;
}

}  // namespace sca::bench
