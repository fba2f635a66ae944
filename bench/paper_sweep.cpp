// The paper's evaluation in one process: Tables I-X, Figures 2-5 and the
// four ablations. Each emitter prints its paper-shaped table and writes
// bench_out/<name>.csv under the name that selects it:
//
//   paper_sweep                                # every emitter
//   paper_sweep table10_binary table08_naive   # these, in kEmitters order
//
// An unknown name or a malformed SCA_* scale knob exits 2 before any work.
// Every emitter shares one YearExperiment per year, whose stages (corpus,
// transforms, oracle, oracle labels) are built on first use and are pure
// functions of the year and the config. The run keeps one performance
// record, complete only if every selected emitter succeeded.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "corpus/challenges.hpp"
#include "corpus/dataset.hpp"
#include "evasion/evasion.hpp"
#include "evasion/mcts.hpp"
#include "llm/pipelines.hpp"
#include "ml/metrics.hpp"
#include "style/apply.hpp"
#include "style/infer.hpp"

namespace {

using namespace sca;

constexpr int kYears[] = {2017, 2018, 2019};

/// What every emitter shares: one experiment per year, all on one config.
struct Sweep {
  std::vector<core::YearExperiment> years;  // kYears order

  core::YearExperiment& year(int year) { return years[year - kYears[0]]; }
  const core::ModelConfig& model() { return years[0].config().model; }
};

/// bench::emit, but a CSV that cannot be written ends the run: the
/// exception unwinds to main, which returns nonzero before complete().
void emitCsv(const util::TablePrinter& table, const std::string& csv) {
  if (!bench::emit(table, csv)) {
    throw std::runtime_error("bench_out/" + csv + ".csv was not written");
  }
}

// Table I reports the fixed 204-author inventory, so it builds its own
// datasets rather than reading the scaled experiments' corpora.
void table01Datasets(Sweep&, const std::string& csv) {
  util::TablePrinter table(
      "Table I: Non-ChatGPT code datasets used to train the authorship "
      "models.");
  table.setHeader({"Dataset", "Authors", "Challenges", "Language", "Total"});
  for (const int year : kYears) {
    const corpus::YearDataset ds = corpus::buildYearDataset(year);
    table.addRow({"GCJ " + std::to_string(year),
                  std::to_string(ds.authors.size()),
                  std::to_string(ds.challenges.size()), "C++",
                  std::to_string(ds.samples.size())});
  }
  emitCsv(table, csv);

  std::cout << "Challenge catalogue in use:\n";
  for (const int year : kYears) {
    std::cout << "  " << year << ":";
    for (const corpus::Challenge* ch : corpus::challengesForYear(year)) {
      std::cout << " " << ch->id;
    }
    std::cout << "\n";
  }
}

void table02Transformed(Sweep& sweep, const std::string& csv) {
  util::TablePrinter table(
      "Table II: ChatGPT-transformed datasets per challenge "
      "(+N ChatGPT+NCT, +C ChatGPT+CT, ~N non-ChatGPT+NCT, ~C "
      "non-ChatGPT+CT).");
  table.setHeader({"Dataset", "+N", "+C", "~N", "~C", "Total"});
  for (core::YearExperiment& experiment : sweep.years) {
    const llm::TransformedDataset& ds = experiment.transformedData();
    std::map<llm::Setting, std::size_t> perChallenge;
    for (const llm::TransformedSample& sample : ds.samples) {
      if (sample.challengeIndex == 0) ++perChallenge[sample.setting];
    }
    const std::size_t challenges =
        experiment.corpusData().challenges.size();
    table.addRow({
        "GCJ " + std::to_string(experiment.year()),
        std::to_string(perChallenge[llm::Setting::ChatGptNct]),
        std::to_string(perChallenge[llm::Setting::ChatGptCt]),
        std::to_string(perChallenge[llm::Setting::HumanNct]),
        std::to_string(perChallenge[llm::Setting::HumanCt]),
        std::to_string(ds.samples.size()) + " (" +
            std::to_string(ds.samples.size() / challenges) + "x" +
            std::to_string(challenges) + ")",
    });
  }
  emitCsv(table, csv);
}

void table03BinaryDatasets(Sweep& sweep, const std::string& csv) {
  util::TablePrinter table(
      "Table III: Datasets for binary classification (ChatGPT vs Human).");
  table.setHeader(
      {"Dataset", "# of challenges", "# of codes", "Language", "Total"});

  std::size_t combinedTotal = 0;
  const std::size_t combinedChallenges = 5;
  for (core::YearExperiment& experiment : sweep.years) {
    const llm::TransformedDataset& transformed = experiment.transformedData();
    const std::size_t challenges = experiment.corpusData().challenges.size();
    const std::size_t perChallenge = transformed.samples.size() / challenges;
    // Both classes are balanced per challenge: total = 2 x transformed.
    table.addRow({"GCJ " + std::to_string(experiment.year()),
                  std::to_string(challenges),
                  std::to_string(perChallenge), "C++",
                  std::to_string(2 * transformed.samples.size())});
    combinedTotal += 2 * perChallenge * combinedChallenges;
  }
  table.addRow({"Combined",
                std::to_string(3 * combinedChallenges),
                std::to_string(combinedTotal /
                               (3 * combinedChallenges)),
                "C++", std::to_string(combinedTotal)});
  emitCsv(table, csv);
}

void table04NumStyles(Sweep& sweep, const std::string& csv) {
  util::TablePrinter table(
      "Table IV: Number of styles (distinct predicted labels) per challenge "
      "(+N ChatGPT+NCT, +C ChatGPT+CT, ~N non-ChatGPT+NCT, ~C "
      "non-ChatGPT+CT, A average).");
  table.setHeader({"", "2017 +N", "+C", "~N", "~C", "2018 +N", "+C", "~N",
                   "~C", "2019 +N", "+C", "~N", "~C"});

  std::vector<core::YearExperiment::StyleCounts> years;
  std::size_t maxStyles = 0;
  for (core::YearExperiment& experiment : sweep.years) {
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
  emitCsv(table, csv);

  std::cout << "Maximum number of styles observed anywhere: " << maxStyles
            << " (paper: 12)\n";
}

// Tables V-VII: how often each oracle label was assigned to one year's
// transformed samples. In the paper one label, A49, carried 77.1% of
// 2017's mass; the top three 66.5% of 2018's; the top two 58.6% of 2019's.
void diversityTable(Sweep& sweep, const std::string& csv, int year) {
  const std::string romanNumeral =
      year == 2017 ? "V" : year == 2018 ? "VI" : "VII";
  core::YearExperiment& experiment = sweep.year(year);
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
  emitCsv(table, csv);

  double topShare = 0.0;
  for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
    topShare += rows[i].percent;
  }
  std::cout << "Top-1 share: "
            << (rows.empty() ? 0.0 : rows[0].percent) << "%, top-3 share: "
            << topShare << "%\n";
}

// Tables VIII (naive: first responses) and IX (feature-based: grouped by
// the oracle's style label). In the paper the naive set's ChatGPT
// recognition collapsed for 2018 (50%) and 2019 (37.5%); the feature-based
// set kept it at 100/87.5/62.5%.
void attributionTable(Sweep& sweep, const std::string& csv,
                      core::Approach approach) {
  const bool featureBased = approach == core::Approach::FeatureBased;
  const std::string romanNumeral = featureBased ? "IX" : "VIII";

  util::TablePrinter table(
      "Table " + romanNumeral + ": Accuracy (" +
      (featureBased ? "feature-based" : "naive") +
      ") for 205 authors per fold (C challenge, A average, " +
      (featureBased ? "T target label, F feature-based set" : "N naive set") +
      "; v correct / x incorrect).");
  std::vector<std::string> header = {"C"};
  for (const int year : kYears) {
    header.push_back(std::to_string(year) + " 205");
    if (featureBased) header.push_back("T");
    header.push_back(featureBased ? "F" : "N");
  }
  table.setHeader(header);

  std::vector<core::YearExperiment::AttributionResult> results;
  for (core::YearExperiment& experiment : sweep.years) {
    results.push_back(experiment.attribution(approach));
  }

  const std::size_t folds = results[0].folds.size();
  for (std::size_t c = 0; c < folds; ++c) {
    std::vector<std::string> row = {"C" + std::to_string(c + 1)};
    for (const auto& result : results) {
      row.push_back(bench::pct(result.folds[c].accuracy205));
      if (featureBased) {
        row.push_back(bench::mark(result.folds[c].targetCorrect));
      }
      row.push_back(bench::mark(result.folds[c].chatgptCorrect));
    }
    table.addRow(row);
  }
  table.addSeparator();
  std::vector<std::string> avg = {"A"};
  for (const auto& result : results) {
    avg.push_back(bench::pct(result.meanAccuracy));
    if (featureBased) {
      avg.push_back(util::formatDouble(result.targetCorrectPercent, 1));
    }
    avg.push_back(util::formatDouble(result.chatgptCorrectPercent, 1));
  }
  table.addRow(avg);
  emitCsv(table, csv);

  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "year " << kYears[i] << ": ChatGPT set size "
              << results[i].setSize;
    if (featureBased) {
      std::cout << ", target label A" << results[i].targetLabel;
    }
    std::cout << "\n";
  }
}

void table10Binary(Sweep& sweep, const std::string& csv) {
  std::vector<core::BinaryIndividualResult> individual;
  for (core::YearExperiment& experiment : sweep.years) {
    individual.push_back(core::binaryIndividual(experiment));
  }
  const core::BinaryCombinedResult combined = core::binaryCombined(
      {&sweep.year(2017), &sweep.year(2018), &sweep.year(2019)});

  util::TablePrinter table(
      "Table X: Binary classification accuracy (ChatGPT vs Human) for "
      "individual and combined training.");
  table.setHeader({"C", "Ind 2017", "Ind 2018", "Ind 2019", "Comb 2017",
                   "Comb 2018", "Comb 2019", "All"});
  const std::size_t folds = individual[0].foldAccuracies.size();
  for (std::size_t c = 0; c < folds; ++c) {
    std::vector<std::string> row = {"C" + std::to_string(c + 1)};
    for (const auto& result : individual) {
      row.push_back(bench::pct(result.foldAccuracies[c]));
    }
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
  std::vector<std::string> avg = {"A"};
  for (const auto& result : individual) {
    avg.push_back(bench::pct(result.meanAccuracy));
  }
  for (const double mean : combined.means) avg.push_back(bench::pct(mean));
  table.addRow(avg);
  emitCsv(table, csv);

  std::cout << "Paper reference (A row): individual 90.9 / 89.7 / 93.8, "
               "combined 95.5 / 90.8 / 91.9, All 93.1\n";
}

// Figure 2 as data: NCT keeps re-rolling from the source while CT settles
// into an absorbing style. Both schedules run on models seeded alike.
void fig02NctVsCt(Sweep&, const std::string& csv) {
  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 7;
  const std::string original =
      llm::SyntheticLlm(options).generate(corpus::figure3Challenge());
  const style::StyleProfile originalProfile =
      style::inferProfileFromSource(original);
  const auto drift = [&](const std::string& code) {
    return util::formatDouble(
        style::StyleProfile::distance(originalProfile,
                                      style::inferProfileFromSource(code)),
        2);
  };

  util::TablePrinter table(
      "Figure 2 (as data): NCT vs CT over 50 steps — archetype used at each "
      "step and style distance to the original.");
  table.setHeader({"step", "NCT arch", "NCT drift", "CT arch", "CT drift"});
  options.seed = 8;
  llm::SyntheticLlm nct(options);
  llm::SyntheticLlm ct(options);
  std::set<std::size_t> nctArchetypes, ctArchetypes;
  std::string current = original;
  for (std::size_t step = 1; step <= 50; ++step) {
    const std::string rewrite = nct.transform(original);
    current = ct.transform(current);
    nctArchetypes.insert(nct.lastArchetype());
    ctArchetypes.insert(ct.lastArchetype());
    table.addRow({std::to_string(step), std::to_string(nct.lastArchetype()),
                  drift(rewrite), std::to_string(ct.lastArchetype()),
                  drift(current)});
  }
  emitCsv(table, csv);
  std::cout << "Distinct archetypes: NCT " << nctArchetypes.size() << ", CT "
            << ctArchetypes.size()
            << " (the paper's Table IV shape: NCT > CT)\n";
}

// Figures 3-5: the original horse-race code and two NCT and two CT
// transformations of it, as listings (no CSV).
void fig03To05Examples(Sweep&, const std::string&) {
  const auto listing = [](const std::string& title, const std::string& code) {
    std::cout << "===== " << title << " =====\n" << code << "\n";
  };

  // Figure 3: the original code, in the compact style of the paper's
  // figure (2-space indent, terse names, cout with setprecision).
  style::StyleProfile fig3;
  fig3.naming = style::NamingConvention::CamelCase;
  fig3.verbosity = style::Verbosity::Short;
  fig3.indentWidth = 2;
  fig3.extractSolve = false;
  fig3.commentDensity = 0.0;
  util::Rng fig3Rng(42);
  const std::string original =
      style::applyStyle(corpus::figure3Challenge().ir, fig3, fig3Rng);
  listing("Figure 3: original code", original);

  // Figures 4a/4b: two independent (non-chaining) transformations.
  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 404;
  llm::SyntheticLlm nct(options);
  const std::vector<std::string> nctOut =
      llm::nonChainingTransform(nct, original, 2);
  listing("Figure 4a: first NCT transformation", nctOut[0]);
  listing("Figure 4b: second NCT transformation (of the SAME original)",
          nctOut[1]);

  // Figures 5a/5b: two chained transformations.
  options.seed = 505;
  llm::SyntheticLlm ct(options);
  const std::vector<std::string> ctOut =
      llm::chainingTransform(ct, original, 2);
  listing("Figure 5a: first CT transformation", ctOut[0]);
  listing("Figure 5b: second CT transformation (of Figure 5a)", ctOut[1]);
}

/// One leave-one-challenge-out fold of a corpus, in corpus order.
struct Fold {
  std::vector<std::string> trainSources, testSources;
  std::vector<int> trainLabels, testLabels;
};

Fold holdOut(const corpus::YearDataset& data, std::size_t challenge) {
  Fold fold;
  for (const corpus::CodeSample& sample : data.samples) {
    const bool test =
        static_cast<std::size_t>(sample.challengeIndex) == challenge;
    (test ? fold.testSources : fold.trainSources).push_back(sample.source);
    (test ? fold.testLabels : fold.trainLabels).push_back(sample.authorId);
  }
  return fold;
}

/// Accuracy of a 204-author model over two representative folds (not all
/// 8), which keeps the feature sweep affordable.
double twoFoldAccuracy(const corpus::YearDataset& data,
                       const core::ModelConfig& modelConfig) {
  double sum = 0.0;
  for (const std::size_t held : {std::size_t{0}, std::size_t{4}}) {
    const Fold fold = holdOut(data, held);
    core::AttributionModel model(modelConfig);
    model.train(fold.trainSources, fold.trainLabels);
    sum += ml::accuracy(fold.testLabels, model.predictAll(fold.testSources));
  }
  return sum / 2;
}

// Which Caliskan-Islam feature family (DESIGN.md §4.2) carries attribution.
void ablationFeatures(Sweep& sweep, const std::string& csv) {
  const corpus::YearDataset& data = sweep.year(2018).corpusData();

  // Name, then whether the lexical, layout and syntactic families are on.
  const std::tuple<std::string, bool, bool, bool> variants[] = {
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
  for (const auto& [name, lexical, layout, syntactic] : variants) {
    core::ModelConfig modelConfig = sweep.model();
    modelConfig.extractor.useLexical = lexical;
    modelConfig.extractor.useLayout = layout;
    modelConfig.extractor.useSyntactic = syntactic;
    const double accuracy = twoFoldAccuracy(data, modelConfig);
    features::FeatureExtractor probe(modelConfig.extractor);
    table.addRow({name, bench::pct(accuracy),
                  std::to_string(probe.dimension()) + "+vocab"});
    std::cout << name << " -> " << bench::pct(accuracy) << "%\n";
  }
  emitCsv(table, csv);

  // Which individual features does the full model split on most?
  const Fold fold = holdOut(data, 0);
  core::AttributionModel full(sweep.model());
  full.train(fold.trainSources, fold.trainLabels);
  std::cout << "Top-12 split features of the full oracle:\n";
  for (const auto& [name, importance] : full.topFeatures(12)) {
    std::cout << "  " << name << "  " << bench::pct(importance, 2) << "%\n";
  }
}

// Tree count and split mode against accuracy and fit time. The fit time
// includes feature extraction, which the analysis memo serves for every
// source an earlier emitter of the run already analysed.
void ablationForest(Sweep& sweep, const std::string& csv) {
  using Clock = std::chrono::steady_clock;
  const Fold fold = holdOut(sweep.year(2018).corpusData(), 0);

  // Name, tree count, thresholds per feature (0 = exact CART).
  const std::tuple<std::string, std::size_t, std::size_t> variants[] = {
      {"10 trees, randomized", 10, 8},  {"40 trees, randomized", 40, 8},
      {"120 trees, randomized", 120, 8}, {"240 trees, randomized", 240, 8},
      {"40 trees, exact CART", 40, 0},  {"120 trees, exact CART", 120, 0},
  };

  util::TablePrinter table(
      "Ablation: forest size and split mode (204 authors, GCJ 2018, fold "
      "C1).");
  table.setHeader({"Variant", "Accuracy (%)", "Fit time (s)"});
  for (const auto& [name, trees, thresholds] : variants) {
    core::ModelConfig modelConfig = sweep.model();
    modelConfig.forest.treeCount = trees;
    modelConfig.forest.tree.thresholdsPerFeature = thresholds;
    const auto start = Clock::now();
    core::AttributionModel model(modelConfig);
    model.train(fold.trainSources, fold.trainLabels);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double accuracy =
        ml::accuracy(fold.testLabels, model.predictAll(fold.testSources));
    table.addRow({name, bench::pct(accuracy),
                  util::formatDouble(seconds, 2)});
    std::cout << name << " -> " << bench::pct(accuracy) << "% in "
              << util::formatDouble(seconds, 2) << "s\n";
  }
  emitCsv(table, csv);
}

// Distinct archetypes and oracle labels as a function of CT depth.
void ablationChainDepth(Sweep& sweep, const std::string& csv) {
  core::YearExperiment& experiment = sweep.year(2018);
  const core::AttributionModel& oracle = experiment.oracle();
  const auto& challenges = experiment.corpusData().challenges;

  util::TablePrinter table(
      "Ablation: chaining-transformation depth (GCJ 2018) — cumulative "
      "distinct archetypes and distinct oracle labels, averaged over "
      "challenges.");
  table.setHeader({"depth", "mean distinct archetypes",
                   "mean distinct oracle labels"});

  constexpr std::size_t kMaxDepth = 50;
  const std::size_t challengeCount = challenges.size();
  std::vector<std::set<std::size_t>> archetypes(challengeCount);
  std::vector<std::set<int>> labels(challengeCount);
  std::vector<llm::SyntheticLlm> llms;
  std::vector<std::string> current;
  for (std::size_t c = 0; c < challengeCount; ++c) {
    llm::LlmOptions options;
    options.year = 2018;
    options.seed = 9000 + c;
    llms.emplace_back(options);
    current.push_back(llms.back().generate(*challenges[c]));
  }

  for (std::size_t depth = 1; depth <= kMaxDepth; ++depth) {
    double archSum = 0.0, labelSum = 0.0;
    for (std::size_t c = 0; c < challengeCount; ++c) {
      current[c] = llms[c].transform(current[c]);
      archetypes[c].insert(llms[c].lastArchetype());
      labels[c].insert(oracle.predict(current[c]));
      archSum += static_cast<double>(archetypes[c].size());
      labelSum += static_cast<double>(labels[c].size());
    }
    if (depth == 1 || depth % 5 == 0) {
      table.addRow({std::to_string(depth),
                    util::formatDouble(archSum / challengeCount, 2),
                    util::formatDouble(labelSum / challengeCount, 2)});
    }
  }
  emitCsv(table, csv);
  std::cout << "Converging curves confirm CT's absorbing behaviour "
               "(Table IV: +C averages stay near 1.5-2).\n";
}

// The Quiring et al. evasion baseline (§II-B) against the 2018 oracle.
void ablationEvasion(Sweep& sweep, const std::string& csv) {
  core::YearExperiment& experiment = sweep.year(2018);
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
  // One row per strategy and budget; victim i's search is seeded i + 1.
  const std::pair<std::string, std::size_t> budgets[] = {
      {"greedy", 2}, {"greedy", 5}, {"greedy", 10}, {"greedy", 25},
      {"mcts", 10},  {"mcts", 30},  {"mcts", 60}};
  for (const auto& [strategy, iterations] : budgets) {
    std::size_t queries = 0;
    std::size_t successes = 0;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      evasion::EvasionResult r;
      if (strategy == "greedy") {
        evasion::EvasionConfig config;
        config.maxIterations = iterations;
        config.candidatesPerIteration = 6;
        config.seed = i + 1;
        r = evasion::StyleEvader(oracle, config)
                .evade(victims[i].source, victims[i].author);
      } else {
        evasion::MctsConfig config;
        config.iterations = iterations;
        config.seed = i + 1;
        r = evasion::MctsEvader(oracle, config)
                .evade(victims[i].source, victims[i].author);
      }
      queries += r.classifierQueries;
      if (r.evaded) ++successes;
    }
    const double rate = static_cast<double>(successes) / victims.size();
    table.addRow({strategy, std::to_string(iterations) + " iters",
                  bench::pct(rate),
                  std::to_string(queries / victims.size())});
    std::cout << strategy << "/" << iterations << " -> " << bench::pct(rate)
              << "% evaded\n";
  }
  emitCsv(table, csv);
}

struct Emitter {
  const char* name;  // selection key and CSV name
  void (*run)(Sweep&, const std::string& csv);
};

// The canonical order: every run executes its selected emitters in it.
const Emitter kEmitters[] = {
    {"table01_datasets", table01Datasets},
    {"table02_transformed", table02Transformed},
    {"table03_binary_datasets", table03BinaryDatasets},
    {"table04_num_styles", table04NumStyles},
    {"table05_diversity_2017",
     [](Sweep& s, const std::string& csv) { diversityTable(s, csv, 2017); }},
    {"table06_diversity_2018",
     [](Sweep& s, const std::string& csv) { diversityTable(s, csv, 2018); }},
    {"table07_diversity_2019",
     [](Sweep& s, const std::string& csv) { diversityTable(s, csv, 2019); }},
    {"table08_naive",
     [](Sweep& s, const std::string& csv) {
       attributionTable(s, csv, core::Approach::Naive);
     }},
    {"table09_feature_based",
     [](Sweep& s, const std::string& csv) {
       attributionTable(s, csv, core::Approach::FeatureBased);
     }},
    {"table10_binary", table10Binary},
    {"fig02_nct_vs_ct", fig02NctVsCt},
    {"fig03_05_examples", fig03To05Examples},
    {"ablation_features", ablationFeatures},
    {"ablation_forest", ablationForest},
    {"ablation_chain_depth", ablationChainDepth},
    {"ablation_evasion", ablationEvasion},
};

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string_view> names(argv + 1, argv + argc);
  for (const std::string_view name : names) {
    if (std::none_of(std::begin(kEmitters), std::end(kEmitters),
                     [&](const Emitter& e) { return name == e.name; })) {
      std::cerr << "paper_sweep: unknown name '" << name
                << "'; valid names:\n";
      for (const Emitter& e : kEmitters) std::cerr << "  " << e.name << "\n";
      return 2;
    }
  }

  Sweep sweep;
  try {
    const core::ExperimentConfig config = core::ExperimentConfig::fromEnv();
    for (const int year : kYears) sweep.years.emplace_back(year, config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "paper_sweep: " << e.what() << "\n";
    return 2;
  }

  bench::Session session("paper_sweep");
  try {
    for (const Emitter& e : kEmitters) {
      if (names.empty() || names.count(e.name) != 0) e.run(sweep, e.name);
    }
  } catch (const std::exception& e) {
    std::cerr << "paper_sweep: " << e.what() << "\n";
    return 1;
  }
  session.complete();
  return 0;
}
