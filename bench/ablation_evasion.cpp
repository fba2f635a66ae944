// Extension bench: deliberate authorship evasion (the Quiring et al.
// baseline from the paper's §II-B) against our 204-author oracle — success
// rate and classifier-query cost as a function of the search budget.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "evasion/evasion.hpp"
#include "evasion/mcts.hpp"

int main() {
  sca::bench::Session session("ablation_evasion");
  using namespace sca;
  core::YearExperiment experiment(2018, core::ExperimentConfig::fromEnv());
  const core::AttributionModel& oracle = experiment.oracle();
  const corpus::YearDataset& data = experiment.corpusData();

  // 16 victims: two challenges from eight different authors.
  std::vector<evasion::VictimSample> victims;
  for (const corpus::CodeSample& sample : data.samples) {
    if (sample.authorId % 25 == 3 && sample.challengeIndex < 2 &&
        victims.size() < 16) {
      victims.push_back(
          evasion::VictimSample{sample.source, sample.authorId});
    }
  }

  util::TablePrinter table(
      "Ablation: style-space evasion vs the 204-author oracle (GCJ 2018); "
      "Quiring et al. report up to 99% evasion with MCTS.");
  table.setHeader({"Strategy", "Budget", "Success rate (%)",
                   "Mean queries"});
  for (const std::size_t iterations : {2ul, 5ul, 10ul, 25ul}) {
    evasion::EvasionConfig config;
    config.maxIterations = iterations;
    config.candidatesPerIteration = 6;
    std::size_t queries = 0;
    std::size_t successes = 0;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      evasion::EvasionConfig perVictim = config;
      perVictim.seed = i + 1;
      evasion::StyleEvader evader(oracle, perVictim);
      const auto r = evader.evade(victims[i].source, victims[i].author);
      queries += r.classifierQueries;
      if (r.evaded) ++successes;
    }
    const double rate = static_cast<double>(successes) / victims.size();
    table.addRow({"greedy", std::to_string(iterations) + " iters",
                  bench::pct(rate),
                  std::to_string(queries / victims.size())});
    std::cout << "greedy/" << iterations << " -> " << bench::pct(rate)
              << "% evaded\n";
  }
  for (const std::size_t iterations : {10ul, 30ul, 60ul}) {
    evasion::MctsConfig config;
    config.iterations = iterations;
    std::size_t queries = 0;
    std::size_t successes = 0;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      evasion::MctsConfig perVictim = config;
      perVictim.seed = i + 1;
      evasion::MctsEvader evader(oracle, perVictim);
      const auto r = evader.evade(victims[i].source, victims[i].author);
      queries += r.classifierQueries;
      if (r.evaded) ++successes;
    }
    const double rate = static_cast<double>(successes) / victims.size();
    table.addRow({"mcts", std::to_string(iterations) + " iters",
                  bench::pct(rate),
                  std::to_string(queries / victims.size())});
    std::cout << "mcts/" << iterations << " -> " << bench::pct(rate)
              << "% evaded\n";
  }
  bench::emit(table, "ablation_evasion");
  session.complete();
  return 0;
}
