// Year-level experiment orchestration: everything Tables IV-IX need for one
// simulated GCJ year, computed lazily and cached.
//
// Pipeline (paper Fig. 1):
//   (1) build the 204-author corpus and generate/select the originals;
//   (2) transform them with the synthetic LLM under NCT and CT;
//   (3) label the transformed code with the pre-trained oracle, group it
//       (feature-based or naive), retrain a 205-class model and evaluate
//       with per-challenge folds.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "core/grouping.hpp"
#include "corpus/dataset.hpp"
#include "llm/pipelines.hpp"

namespace sca::core {

struct ExperimentConfig {
  std::size_t authorCount = 204;
  std::size_t steps = 50;                 // transformations per setting
  std::size_t chatgptSetPerChallenge = 8; // 205th-class samples per challenge
  ModelConfig model;
  /// Features kept for the binary (ChatGPT vs human) task. The two-class
  /// problem is driven by a handful of systematic signals; aggressive
  /// information-gain pruning removes the challenge-specific noise columns
  /// that a 350-feature forest would otherwise split on.
  std::size_t binarySelectTopK = 40;

  /// Defaults scaled down by environment variables for quick runs:
  /// SCA_AUTHORS, SCA_STEPS, SCA_TREES, SCA_TOPK, SCA_SET. Each must be a
  /// positive integer when set and non-empty; anything else throws
  /// std::invalid_argument naming the variable and its value.
  [[nodiscard]] static ExperimentConfig fromEnv();
};

class YearExperiment {
 public:
  explicit YearExperiment(int year, ExperimentConfig config);

  [[nodiscard]] int year() const noexcept { return year_; }
  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

  /// Stage outputs (computed on first use, cached after).
  [[nodiscard]] const corpus::YearDataset& corpusData();
  [[nodiscard]] const llm::TransformedDataset& transformedData();
  [[nodiscard]] const AttributionModel& oracle();
  /// Oracle-predicted author labels of every transformed sample.
  [[nodiscard]] const std::vector<int>& oracleLabels();

  /// Baseline: leave-one-challenge-out accuracy of the 204-author model
  /// (the sanity bar the paper's §VI-D "205" columns sit near).
  [[nodiscard]] std::vector<double> baselineFoldAccuracies();

  // ------------------------------------------------------------ Table IV --
  struct StyleCounts {
    /// counts[challenge][setting] = distinct predicted labels.
    std::vector<std::array<std::size_t, 4>> perChallenge;
    std::array<double, 4> averages{};
    std::size_t maxCount = 0;
  };
  [[nodiscard]] StyleCounts styleCounts();

  // ------------------------------------------------------- Tables V-VII --
  struct DiversityRow {
    std::string label;        // "A49"
    std::size_t occurrences;  // times predicted
    double percent;           // of all transformed samples
  };
  /// Rows with >= minOccurrences, ranked by occurrences (the tables filter
  /// singletons and report how many were filtered).
  [[nodiscard]] std::vector<DiversityRow> diversity(
      std::size_t minOccurrences = 2);
  [[nodiscard]] std::size_t diversityFilteredCount(
      std::size_t minOccurrences = 2);

  // --------------------------------------------------- Tables VIII & IX --
  struct AttributionFold {
    int challenge = 0;       // 0-based
    double accuracy205 = 0;  // fold accuracy over all 205 classes
    bool chatgptCorrect = false;  // majority of ChatGPT test samples hit
    bool targetCorrect = false;   // target author's samples still correct
    std::size_t chatgptTestCount = 0;
  };
  struct AttributionResult {
    Approach approach = Approach::Naive;
    int targetLabel = -1;     // oracle label the set keyed on (feature-based)
    std::size_t setSize = 0;  // ChatGPT-class training samples
    std::vector<AttributionFold> folds;
    double meanAccuracy = 0;          // paper's "205" average row
    double chatgptCorrectPercent = 0; // paper's N (Table VIII) / F (Table IX)
    double targetCorrectPercent = 0;  // paper's T (Table IX)
  };
  [[nodiscard]] AttributionResult attribution(Approach approach);

 private:
  int year_;
  ExperimentConfig config_;
  std::optional<corpus::YearDataset> corpus_;
  std::optional<llm::TransformedDataset> transformed_;
  std::unique_ptr<AttributionModel> oracle_;
  std::optional<std::vector<int>> oracleLabels_;
};

}  // namespace sca::core
