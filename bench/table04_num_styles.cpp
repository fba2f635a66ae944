// Regenerates Table IV: the number of styles — distinct predicted labels
// assigned to ChatGPT-transformed code by the pre-trained non-ChatGPT
// authorship model, per challenge and setting, for all three years.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  sca::bench::Session session("table04_num_styles");
  using namespace sca;
  const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();

  util::TablePrinter table(
      "Table IV: Number of styles (distinct predicted labels) per challenge "
      "(+N ChatGPT+NCT, +C ChatGPT+CT, ~N non-ChatGPT+NCT, ~C "
      "non-ChatGPT+CT, A average).");
  table.setHeader({"", "2017 +N", "+C", "~N", "~C", "2018 +N", "+C", "~N",
                   "~C", "2019 +N", "+C", "~N", "~C"});

  std::vector<core::YearExperiment::StyleCounts> years;
  std::size_t maxStyles = 0;
  for (const int year : {2017, 2018, 2019}) {
    core::YearExperiment experiment(year, config);
    years.push_back(experiment.styleCounts());
    maxStyles = std::max(maxStyles, years.back().maxCount);
  }

  const std::size_t challengeCount = years[0].perChallenge.size();
  for (std::size_t c = 0; c < challengeCount; ++c) {
    std::vector<std::string> row = {"C" + std::to_string(c + 1)};
    for (const auto& year : years) {
      for (std::size_t s = 0; s < 4; ++s) {
        row.push_back(std::to_string(year.perChallenge[c][s]));
      }
    }
    table.addRow(row);
  }
  table.addSeparator();
  std::vector<std::string> avg = {"A"};
  for (const auto& year : years) {
    for (std::size_t s = 0; s < 4; ++s) {
      avg.push_back(util::formatDouble(year.averages[s], 1));
    }
  }
  table.addRow(avg);
  bench::emit(table, "table04_num_styles");

  std::cout << "Maximum number of styles observed anywhere: " << maxStyles
            << " (paper: 12)\n";
  session.complete();
  return 0;
}
