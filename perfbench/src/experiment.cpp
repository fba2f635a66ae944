// The attribution and binary workloads: the paper's Table VIII/IX path
// (205-class leave-one-challenge-out attribution, naive and feature-based)
// and its Table X path (ChatGPT-vs-human detection) for one simulated year.
//
// Timed runs call the core entry points, YearExperiment::attribution and
// core::binaryIndividual, whose fold loops live inside the core. The
// traced run replays those loops from the layers' public calls
// (FeatureExtractor fit/transformAll -> FeatureSelector fit/applyAll ->
// RandomForest fit/predictAll) inside layer spans, and requires the replay
// to reproduce the core's fold results exactly: the proof that the split
// of the time between layers is faithful. The traced attribution set-up
// also runs the sca_cli attribute path on the oracle: model save/load and
// a per-file predict split into lexer, ast, features, selection and
// forest calls, which must reproduce the oracle's labels.
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "ast/parser.hpp"
#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "features/extractor.hpp"
#include "harness.hpp"
#include "lexer/lexer.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"

namespace perfbench {
namespace {

using namespace sca;
using Fold = core::YearExperiment::AttributionFold;
using AttributionResult = core::YearExperiment::AttributionResult;

// The paper's 204 authors (205 classes with the ChatGPT class), 8
// challenges and 50 transformation steps per setting, with a quarter of
// its 120 trees so that one pass takes seconds; forest fitting still
// takes over 90% of the pass.
constexpr std::size_t kAuthors = 204;
constexpr std::size_t kSteps = 50;
constexpr std::size_t kTrees = 30;

/// The year's corpus and transformed dataset are a pure function of the
/// year, and passes of different years measured up to 25% apart, which
/// would widen the run-to-run spread. So the year is fixed and the seed
/// drives the forests' randomness (bootstrap and feature draws) instead.
constexpr int kYear = 2017;

core::ExperimentConfig experimentConfig(std::uint64_t seed) {
  core::ExperimentConfig config;  // not fromEnv: the scale is fixed here
  config.authorCount = kAuthors;
  config.steps = kSteps;
  config.model.forest.treeCount = kTrees;
  config.model.forest.seed =
      util::combine64(util::hash64("perfbench-forest"), seed);
  return config;
}

/// The set-up every timed pass starts from: the year's corpus, its
/// transformed dataset and (attribution only) the oracle's labels.
std::unique_ptr<core::YearExperiment> setUp(std::uint64_t seed,
                                            bool withOracle) {
  features::clearAnalysisCache();
  auto experiment =
      std::make_unique<core::YearExperiment>(kYear, experimentConfig(seed));
  (void)experiment->transformedData();
  if (withOracle) (void)experiment->oracleLabels();
  return experiment;
}

std::string foldValue(const Fold& fold, const AttributionResult& result) {
  std::ostringstream out;
  out << "acc=" << exact(fold.accuracy205) << ",chatgpt="
      << fold.chatgptCorrect << ",target=" << fold.targetCorrect
      << ",n=" << fold.chatgptTestCount << ",set=" << result.setSize << '/'
      << result.targetLabel;
  return out.str();
}

std::string opName(core::Approach approach, std::size_t fold) {
  return std::string(approach == core::Approach::Naive ? "naive" : "feature") +
         ".C" + std::to_string(fold + 1);
}

constexpr core::Approach kApproaches[] = {core::Approach::Naive,
                                          core::Approach::FeatureBased};

/// AttributionModel::predict split into its layers' public calls, one file
/// at a time: lexer::tokenize and ast::parse (timed on their own),
/// FeatureExtractor::transformUncached, FeatureSelector::apply, and
/// RandomForest::predict on the forest read back from the model file
/// `saved`. The memo is bypassed, as for a file never seen before.
std::vector<int> predictSplit(const core::AttributionModel& model,
                              const std::string& saved,
                              const std::vector<std::string>& files) {
  std::istringstream forestText(saved.substr(saved.find("\nforest ") + 1));
  const ml::RandomForest forest = ml::RandomForest::load(forestText);
  std::vector<int> labels;
  for (const std::string& file : files) {
    {
      Layer layer("lexer.tokenize");
      layer.addWork(static_cast<double>(lexer::tokenize(file).size()));
    }
    {
      Layer layer("ast.parse", 1.0);
      (void)ast::parse(file);
    }
    std::vector<double> row;
    {
      Layer layer("features.transform", 1.0);
      row = model.extractor().transformUncached(file);
    }
    {
      Layer layer("selection.apply", 1.0);
      row = model.selector().apply(row);
    }
    Layer layer("forest.predict", 1.0);
    labels.push_back(forest.predict(row));
  }
  return labels;
}

// ------------------------------------------------------- fold replay --

/// What a replay reads: the configuration and the outputs of a set-up.
struct YearInputs {
  core::ExperimentConfig config;
  const corpus::YearDataset* data = nullptr;
  const llm::TransformedDataset* transformed = nullptr;
  const std::vector<int>* oracleLabels = nullptr;  // attribution only
};

struct Row {
  const std::string* source;
  int label;
  int challenge;
  bool chatgpt;
};

/// AttributionModel::train + predictAll for one held-out challenge, as
/// separate layer calls. Returns the test rows' predictions.
std::vector<int> replayFold(const std::vector<Row>& rows, std::size_t held,
                            const core::ModelConfig& config,
                            std::vector<const Row*>* testRows,
                            std::size_t* nodes) {
  std::vector<std::string> trainSources, testSources;
  std::vector<int> trainLabels;
  for (const Row& row : rows) {
    if (static_cast<std::size_t>(row.challenge) == held) {
      testRows->push_back(&row);
      testSources.push_back(*row.source);
    } else {
      trainSources.push_back(*row.source);
      trainLabels.push_back(row.label);
    }
  }
  const auto trainCount = static_cast<double>(trainSources.size());
  const auto testCount = static_cast<double>(testSources.size());

  features::FeatureExtractor extractor(config.extractor);
  std::vector<std::vector<double>> x;
  {
    Layer layer("features.fit", trainCount);
    extractor.fit(trainSources);
  }
  {
    Layer layer("features.transform_all", trainCount);
    x = extractor.transformAll(trainSources);
  }
  features::FeatureSelector selector;
  {
    Layer layer("selection.fit",
                trainCount * static_cast<double>(extractor.dimension()));
    selector.fit(x, trainLabels, config.selectTopK);
  }
  ml::Dataset data;
  {
    Layer layer("selection.apply_all", trainCount);
    data.x = selector.applyAll(x);
  }
  data.y = trainLabels;
  ml::RandomForest forest(config.forest);
  {
    Layer layer("forest.fit", static_cast<double>(config.forest.treeCount));
    forest.fit(data);
  }

  std::vector<std::vector<double>> test;
  {
    Layer layer("features.transform_all", testCount);
    test = extractor.transformAll(testSources);
  }
  {
    Layer layer("selection.apply_all", testCount);
    test = selector.applyAll(test);
  }
  std::vector<int> predicted;
  {
    Layer layer("forest.predict_all", testCount);
    predicted = forest.predictAll(test);
  }
  *nodes += forestNodes(forest);
  return predicted;
}

/// YearExperiment::attribution, replayed (folds in order, one at a time).
AttributionResult replayAttribution(const YearInputs& in,
                                    core::Approach approach,
                                    std::size_t* nodes) {
  const core::ExperimentConfig& config = in.config;
  core::ChatGptSet set;
  {
    Layer layer("core.grouping",
                static_cast<double>(in.transformed->samples.size()));
    set = core::buildChatGptSet(*in.transformed, *in.oracleLabels, approach,
                                config.chatgptSetPerChallenge);
  }
  const int chatgptClass = static_cast<int>(config.authorCount);
  std::vector<Row> rows;
  for (const corpus::CodeSample& sample : in.data->samples) {
    rows.push_back(
        Row{&sample.source, sample.authorId, sample.challengeIndex, false});
  }
  for (const std::size_t i : set.sampleIndices) {
    const llm::TransformedSample& sample = in.transformed->samples[i];
    rows.push_back(
        Row{&sample.source, chatgptClass, sample.challengeIndex, true});
  }

  AttributionResult result;
  result.approach = approach;
  result.targetLabel = set.targetLabel;
  result.setSize = set.sampleIndices.size();
  for (std::size_t held = 0; held < in.data->challenges.size(); ++held) {
    std::vector<const Row*> testRows;
    const std::vector<int> predicted =
        replayFold(rows, held, config.model, &testRows, nodes);
    std::vector<int> testLabels;
    std::size_t chatgptTotal = 0, chatgptHits = 0;
    std::size_t targetTotal = 0, targetHits = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      const Row& row = *testRows[i];
      testLabels.push_back(row.label);
      if (row.chatgpt) {
        ++chatgptTotal;
        if (predicted[i] == chatgptClass) ++chatgptHits;
      }
      if (set.targetLabel >= 0 && row.label == set.targetLabel) {
        ++targetTotal;
        if (predicted[i] == row.label) ++targetHits;
      }
    }
    Fold fold;
    fold.challenge = static_cast<int>(held);
    fold.accuracy205 = ml::accuracy(testLabels, predicted);
    fold.chatgptTestCount = chatgptTotal;
    fold.chatgptCorrect = chatgptTotal > 0 && 2 * chatgptHits > chatgptTotal;
    fold.targetCorrect = targetTotal > 0 && 2 * targetHits > targetTotal;
    result.folds.push_back(fold);
  }
  return result;
}

/// core::binaryIndividual, replayed.
std::vector<double> replayBinary(const YearInputs& in, std::size_t* nodes) {
  const core::ExperimentConfig& config = in.config;
  const std::size_t challengeCount = in.data->challenges.size();
  // Every transformed sample is "ChatGPT"; human samples balance each
  // challenge's count, one per author in corpus order.
  std::vector<Row> rows;
  std::vector<std::size_t> chatgptPerChallenge(challengeCount, 0);
  for (const llm::TransformedSample& sample : in.transformed->samples) {
    rows.push_back(Row{&sample.source, core::kChatGptClass,
                       sample.challengeIndex, true});
    ++chatgptPerChallenge[static_cast<std::size_t>(sample.challengeIndex)];
  }
  std::vector<std::size_t> humanPerChallenge(challengeCount, 0);
  for (const corpus::CodeSample& sample : in.data->samples) {
    const auto c = static_cast<std::size_t>(sample.challengeIndex);
    if (humanPerChallenge[c] >= chatgptPerChallenge[c]) continue;
    rows.push_back(Row{&sample.source, core::kHumanClass,
                       sample.challengeIndex, false});
    ++humanPerChallenge[c];
  }
  core::ModelConfig model = config.model;
  model.selectTopK = config.binarySelectTopK;

  std::vector<double> accuracies;
  for (std::size_t held = 0; held < challengeCount; ++held) {
    std::vector<const Row*> testRows;
    const std::vector<int> predicted =
        replayFold(rows, held, model, &testRows, nodes);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (predicted[i] == testRows[i]->label) ++hits;
    }
    accuracies.push_back(testRows.empty()
                             ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(testRows.size()));
  }
  return accuracies;
}

// ----------------------------------------------------- workload shape --

/// The two workloads differ only in what one pass runs and replays.
struct Workload {
  bool withOracle;
  /// One pass through the core entry points: op name -> output. Appends
  /// each entry-point call's seconds to *callSeconds.
  std::function<std::map<std::string, std::string>(
      core::YearExperiment&, std::vector<double>* callSeconds)>
      corePass;
  /// The same pass replayed from layer calls.
  std::function<std::map<std::string, std::string>(const YearInputs&,
                                                   std::size_t* nodes)>
      replayPass;
};

std::map<std::string, std::string> attributionOutputs(
    const AttributionResult& result, core::Approach approach) {
  std::map<std::string, std::string> outputs;
  for (std::size_t f = 0; f < result.folds.size(); ++f) {
    outputs[opName(approach, f)] = foldValue(result.folds[f], result);
  }
  return outputs;
}

std::map<std::string, std::string> binaryOutputs(
    const std::vector<double>& accuracies) {
  std::map<std::string, std::string> outputs;
  for (std::size_t f = 0; f < accuracies.size(); ++f) {
    outputs["C" + std::to_string(f + 1)] = "acc=" + exact(accuracies[f]);
  }
  return outputs;
}

const Workload& attributionWorkload() {
  static const Workload kWorkload{
      true,
      [](core::YearExperiment& experiment, std::vector<double>* calls) {
        std::map<std::string, std::string> outputs;
        for (const core::Approach approach : kApproaches) {
          const double start = wallSeconds();
          const AttributionResult result = experiment.attribution(approach);
          calls->push_back(wallSeconds() - start);
          outputs.merge(attributionOutputs(result, approach));
        }
        return outputs;
      },
      [](const YearInputs& in, std::size_t* nodes) {
        std::map<std::string, std::string> outputs;
        for (const core::Approach approach : kApproaches) {
          outputs.merge(attributionOutputs(
              replayAttribution(in, approach, nodes), approach));
        }
        return outputs;
      }};
  return kWorkload;
}

const Workload& binaryWorkload() {
  static const Workload kWorkload{
      false,
      [](core::YearExperiment& experiment, std::vector<double>* calls) {
        const double start = wallSeconds();
        const core::BinaryIndividualResult result =
            core::binaryIndividual(experiment);
        calls->push_back(wallSeconds() - start);
        return binaryOutputs(result.foldAccuracies);
      },
      [](const YearInputs& in, std::size_t* nodes) {
        return binaryOutputs(replayBinary(in, nodes));
      }};
  return kWorkload;
}

/// Checks one pass's outputs; returns the number of ops it covered.
std::uint64_t checkPass(OutputCheck& check,
                        const std::map<std::string, std::string>& outputs) {
  for (const auto& [op, value] : outputs) (void)check.check(op, value);
  return outputs.size();
}

Report timedRun(const Options& options, const Workload& workload) {
  Report report;
  OutputCheck check(options, report);
  std::unique_ptr<core::YearExperiment> experiment;
  const double setupSeconds = medianSetup(
      [&] { experiment = setUp(options.seed, workload.withOracle); });

  std::uint64_t opsPerPass = 0;
  const Passes passes =
      timePasses(options.seconds, [&](std::vector<double>* calls) {
        opsPerPass = checkPass(check, workload.corePass(*experiment, calls));
        report.attempted += opsPerPass;
      });
  report.endToEnd(setupSeconds, passes, opsPerPass);
  return report;
}

/// Core pass, untraced replay, then a traced set-up from public calls and
/// a traced replay. Both replays must equal the core pass op for op.
Report tracedRun(const Options& options, const Workload& workload) {
  Report report;
  OutputCheck check(options, report);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.setEnabled(false);

  const std::unique_ptr<core::YearExperiment> experiment =
      setUp(options.seed, workload.withOracle);
  const core::ExperimentConfig& config = experiment->config();
  std::vector<double> calls;
  const Stopwatch corePass;
  const std::map<std::string, std::string> expected =
      workload.corePass(*experiment, &calls);
  const double coreWall = corePass.wall();
  const double coreCpu = corePass.cpu();
  report.attempted += checkPass(check, expected);

  const auto compare = [&](const std::map<std::string, std::string>& got,
                           const char* what) {
    report.attempted += got.size();
    for (const auto& [op, value] : expected) {
      const auto it = got.find(op);
      if (it == got.end() || it->second != value) {
        report.fail(1, std::string(what) + " " + op + " = " +
                           (it == got.end() ? "missing" : it->second) +
                           ", core " + value);
      }
    }
  };

  const YearInputs inputs{
      config, &experiment->corpusData(), &experiment->transformedData(),
      workload.withOracle ? &experiment->oracleLabels() : nullptr};
  std::size_t nodes = 0;
  // Both replays start from the memo state their set-up leaves: warm after
  // the oracle labelled everything, cold when there is no oracle.
  if (!workload.withOracle) features::clearAnalysisCache();
  const Stopwatch untraced;
  compare(workload.replayPass(inputs, &nodes), "untraced replay");
  const double untracedWall = untraced.wall();

  // Traced set-up, cold, through the same public calls the core makes.
  features::clearAnalysisCache();
  resetTrace();
  tracer.setEnabled(true);
  const std::uint64_t setupNs = traceNow();
  corpus::YearDataset data;
  {
    Layer layer("corpus.build");
    data = corpus::buildYearDataset(kYear, config.authorCount);
    layer.addWork(static_cast<double>(data.samples.size()));
  }
  llm::TransformedDataset transformed;
  {
    Layer layer("llm.transform");
    transformed = llm::buildTransformedDataset(data, config.steps);
    layer.addWork(static_cast<double>(transformed.samples.size()));
  }
  std::vector<int> oracleLabels;
  if (workload.withOracle) {
    std::vector<std::string> sources, transformedSources;
    std::vector<int> labels;
    for (const corpus::CodeSample& sample : data.samples) {
      sources.push_back(sample.source);
      labels.push_back(sample.authorId);
    }
    for (const llm::TransformedSample& sample : transformed.samples) {
      transformedSources.push_back(sample.source);
    }
    core::AttributionModel oracle(config.model);
    {
      Layer layer("core.train", static_cast<double>(sources.size()));
      oracle.train(sources, labels);
    }
    {
      Layer layer("core.predict_all",
                  static_cast<double>(transformedSources.size()));
      oracleLabels = oracle.predictAll(transformedSources);
    }
    if (oracleLabels != experiment->oracleLabels()) {
      report.fail(1, "traced set-up oracle labels differ from the core's");
    }
    // The sca_cli attribute path on the same files: the oracle's model file
    // round trip, then predict one file at a time, split into layers.
    std::string saved;
    {
      Layer layer("core.save");
      std::ostringstream os;
      oracle.save(os);
      saved = os.str();
      layer.addWork(static_cast<double>(saved.size()));
    }
    std::optional<core::AttributionModel> loaded;
    {
      Layer layer("core.load", static_cast<double>(saved.size()));
      std::istringstream is(saved);
      loaded = core::AttributionModel::load(is);
    }
    report.metric("core.model_mb",
                  static_cast<double>(saved.size()) / (1 << 20), "MB");
    report.attempted += transformedSources.size();
    const std::vector<int> split =
        predictSplit(*loaded, saved, transformedSources);
    for (std::size_t i = 0; i < split.size(); ++i) {
      if (split[i] != oracleLabels[i]) {
        report.fail(1, "split predict of transformed sample " +
                           std::to_string(i) + " = " +
                           std::to_string(split[i]) + ", predictAll " +
                           std::to_string(oracleLabels[i]));
      }
    }
  }

  const std::uint64_t passNs = traceNow();
  const features::AnalysisCacheStats memoBefore =
      features::analysisCacheStats();
  nodes = 0;
  const Stopwatch traced;
  compare(workload.replayPass(
              YearInputs{config, &data, &transformed,
                         workload.withOracle ? &oracleLabels : nullptr},
              &nodes),
          "traced replay");
  const double tracedWall = traced.wall();
  const features::AnalysisCacheStats memoAfter =
      features::analysisCacheStats();
  const std::uint64_t endNs = traceNow();
  tracer.setEnabled(false);

  LayerTable rows = layerTable(options.workload + " set-up", setupNs, passNs);
  rows.merge(layerTable(options.workload + " pass (replayed)", passNs, endNs));
  flushTrace();

  addLayerMetrics(report, rows);
  const double hits = static_cast<double>(memoAfter.hits - memoBefore.hits);
  const double misses =
      static_cast<double>(memoAfter.misses - memoBefore.misses);
  report.metric("features.memo_hit_pct",
                hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  report.metric("forest.nodes", static_cast<double>(nodes), "count");
  report.metric("runtime.cpu_util",
                coreCpu / (coreWall * static_cast<double>(threadCount())),
                "ratio");
  report.metric("obs.trace_overhead_pct",
                100.0 * (tracedWall - untracedWall) / untracedWall, "%");
  return report;
}

}  // namespace

Report runAttribution(const Options& options) {
  return options.trace ? tracedRun(options, attributionWorkload())
                       : timedRun(options, attributionWorkload());
}

Report runBinary(const Options& options) {
  return options.trace ? tracedRun(options, binaryWorkload())
                       : timedRun(options, binaryWorkload());
}

}  // namespace perfbench
