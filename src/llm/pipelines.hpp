// Transformation schedules (paper §IV-B, Figure 2) and the Table II
// transformed-dataset builder.
//
// NCT (non-chaining): every step re-transforms the ORIGINAL code,
//   CGc_i = GPT(CGc_0), 1 <= i <= 50.
// CT (chaining): every step transforms the PREVIOUS output,
//   CGc_{i+1} = GPT(CGc_i), 0 <= i <= 49.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/dataset.hpp"
#include "llm/client.hpp"
#include "llm/synthetic_llm.hpp"
#include "util/status.hpp"

namespace sca::llm {

/// The four transformed-code settings of Table II.
enum class Setting {
  ChatGptNct,  // +N : ChatGPT-generated code, non-chaining transformation
  ChatGptCt,   // +C : ChatGPT-generated code, chaining transformation
  HumanNct,    // ±N : non-ChatGPT (human) code, non-chaining
  HumanCt,     // ±C : non-ChatGPT (human) code, chaining
};

/// The paper's column labels: "+N", "+C", "±N", "±C" (ASCII "~N"/"~C").
[[nodiscard]] std::string_view settingLabel(Setting setting) noexcept;

/// All four settings in Table II column order.
[[nodiscard]] const std::vector<Setting>& allSettings();

/// What a schedule does when one step's transformation fails for good
/// (retry budget spent, non-retryable error).
struct TransformPolicy {
  /// Degrade instead of aborting: a failed NCT step falls back to the
  /// ORIGINAL code (the step re-transforms the original anyway), a failed
  /// CT step falls back to the LAST GOOD output (the conversation keeps
  /// its latest state). Degraded steps are counted under
  /// "llm_degraded_steps". With degradation off, the first failure aborts
  /// the schedule and its Status is returned.
  bool degradeOnFailure = true;
};

/// Runs the non-chaining schedule: `steps` independent transformations of
/// `original`. Element i is CGc_{i+1}. Only errors when degradation is
/// disabled and a step fails.
[[nodiscard]] util::Result<std::vector<std::string>> nonChainingTransform(
    LlmClient& client, const std::string& original, std::size_t steps,
    const TransformPolicy& policy = {});

/// Runs the chaining schedule: each output feeds the next transformation.
[[nodiscard]] util::Result<std::vector<std::string>> chainingTransform(
    LlmClient& client, const std::string& original, std::size_t steps,
    const TransformPolicy& policy = {});

/// Infallible-backend conveniences: the historical entry points. The
/// in-process model never fails, so these unwrap unconditionally and the
/// call sequence (hence every output byte) matches the pre-resilience
/// implementation.
[[nodiscard]] std::vector<std::string> nonChainingTransform(
    SyntheticLlm& llm, const std::string& original, std::size_t steps);
[[nodiscard]] std::vector<std::string> chainingTransform(
    SyntheticLlm& llm, const std::string& original, std::size_t steps);

struct TransformedSample {
  std::string source;
  int challengeIndex = 0;  // 0..7 within the year
  Setting setting = Setting::ChatGptNct;
  int step = 0;            // 1..steps within its schedule
};

struct TransformedDataset {
  int year = 0;
  std::size_t stepsPerSetting = 50;
  int humanAuthorId = 0;   // the author whose codes fed ±N / ±C
  std::vector<std::string> chatgptOriginals;  // CGc_0 per challenge
  std::vector<std::string> humanOriginals;    // NCGc_0 per challenge
  std::vector<TransformedSample> samples;     // 4 x steps x challenges
};

/// Knobs for the dataset builder's resilience stack, normally taken from
/// the environment (see fromEnv).
struct BuildOptions {
  std::size_t steps = 50;
  /// Total per-attempt fault probability injected between the pipeline and
  /// the model (FaultOptions::scaled mix). 0 disables fault injection AND
  /// the resilience wrapper: the chains drive the bare SyntheticLlm
  /// exactly as before, byte for byte.
  double faultRate = 0.0;
  /// Directory for per-chain crash-safe checkpoints; empty disables
  /// checkpointing. A resumed build is bit-identical to an uninterrupted
  /// one (chains are independently seeded).
  std::string checkpointDir;

  /// SCA_FAULT_RATE (double) and SCA_CHECKPOINT_DIR (path) over defaults.
  [[nodiscard]] static BuildOptions fromEnv(std::size_t steps = 50);
};

/// Builds the full Table II dataset of one year: one ChatGPT-generated code
/// per challenge, one human author's 8 codes, both pushed through NCT and
/// CT for `steps` rounds each (200 codes per challenge at steps = 50).
/// Reads BuildOptions::fromEnv(steps).
[[nodiscard]] TransformedDataset buildTransformedDataset(
    const corpus::YearDataset& yearData, std::size_t steps = 50);

/// Same, with explicit resilience/checkpoint options.
[[nodiscard]] TransformedDataset buildTransformedDataset(
    const corpus::YearDataset& yearData, const BuildOptions& options);

}  // namespace sca::llm
