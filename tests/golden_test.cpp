// Golden digest of the one-shot mini pipeline — corpus -> Table II
// transform -> 60-tree attribution model -> predict — the same pass that
// bench/micro_pipeline runs under SCA_PIPELINE_ONCE=1. The expected line
// is what that bench prints with no other SCA_* variable set. It moves
// when corpus rendering, the synthetic LLM, feature extraction or the
// forest changes any output byte, so a refactor that claims identical
// behaviour must leave it alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "corpus/dataset.hpp"
#include "llm/pipelines.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca {
namespace {

constexpr char kPipelineLine[] =
    "[pipeline] digest=93728f28931055d4 transformed=96 accuracy=1.000000";

TEST(Golden, OneShotPipelineMatchesPinnedDigest) {
  const corpus::YearDataset data = corpus::buildYearDataset(2018, 24);
  llm::BuildOptions options;  // explicit: no environment variable is read
  options.steps = 3;
  const llm::TransformedDataset transformed =
      llm::buildTransformedDataset(data, options);

  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : data.samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::ModelConfig config;
  config.forest.treeCount = 60;
  core::AttributionModel model(config);
  model.train(sources, labels);
  const std::vector<int> predictions = model.predictAll(sources);
  ASSERT_EQ(predictions.size(), labels.size());

  std::uint64_t digest = util::hash64("pipeline");
  for (const llm::TransformedSample& sample : transformed.samples) {
    digest = util::combine64(digest, util::hash64(sample.source));
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    digest = util::combine64(digest,
                             static_cast<std::uint64_t>(predictions[i]));
    if (predictions[i] == labels[i]) ++correct;
  }
  const double accuracy = static_cast<double>(correct) /
                          static_cast<double>(predictions.size());
  EXPECT_EQ("[pipeline] digest=" + util::toHex64(digest) +
                " transformed=" + std::to_string(transformed.samples.size()) +
                " accuracy=" + util::formatDouble(accuracy, 6),
            kPipelineLine);
}

}  // namespace
}  // namespace sca
