// Regenerates Table X: binary (ChatGPT vs human) classification accuracy —
// individual per-year datasets (8 challenge folds) and the combined
// three-year dataset (5 challenge folds).
#include <iostream>

#include "bench_common.hpp"
#include "core/binary.hpp"

int main() {
  sca::bench::Session session("table10_binary");
  using namespace sca;
  const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();

  core::YearExperiment y2017(2017, config);
  core::YearExperiment y2018(2018, config);
  core::YearExperiment y2019(2019, config);

  const core::BinaryIndividualResult r2017 = core::binaryIndividual(y2017);
  const core::BinaryIndividualResult r2018 = core::binaryIndividual(y2018);
  const core::BinaryIndividualResult r2019 = core::binaryIndividual(y2019);
  const core::BinaryCombinedResult combined =
      core::binaryCombined({&y2017, &y2018, &y2019});

  util::TablePrinter table(
      "Table X: Binary classification accuracy (ChatGPT vs Human) for "
      "individual and combined training.");
  table.setHeader({"C", "Ind 2017", "Ind 2018", "Ind 2019", "Comb 2017",
                   "Comb 2018", "Comb 2019", "All"});
  const std::size_t folds = r2017.foldAccuracies.size();
  for (std::size_t c = 0; c < folds; ++c) {
    std::vector<std::string> row = {"C" + std::to_string(c + 1)};
    row.push_back(bench::pct(r2017.foldAccuracies[c]));
    row.push_back(bench::pct(r2018.foldAccuracies[c]));
    row.push_back(bench::pct(r2019.foldAccuracies[c]));
    if (c < combined.perChallenge.size()) {
      for (const double v : combined.perChallenge[c]) {
        row.push_back(bench::pct(v));
      }
    } else {
      row.insert(row.end(), 4, "");
    }
    table.addRow(row);
  }
  table.addSeparator();
  table.addRow({"A", bench::pct(r2017.meanAccuracy),
                bench::pct(r2018.meanAccuracy),
                bench::pct(r2019.meanAccuracy),
                bench::pct(combined.means[0]), bench::pct(combined.means[1]),
                bench::pct(combined.means[2]), bench::pct(combined.means[3])});
  bench::emit(table, "table10_binary");

  std::cout << "Paper reference (A row): individual 90.9 / 89.7 / 93.8, "
               "combined 95.5 / 90.8 / 91.9, All 93.1\n";
  session.complete();
  return 0;
}
