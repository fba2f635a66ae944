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
#include "llm/synthetic_llm.hpp"

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

/// Runs the non-chaining schedule: `steps` independent transformations of
/// `original`. Element i is CGc_{i+1}.
[[nodiscard]] std::vector<std::string> nonChainingTransform(
    SyntheticLlm& llm, const std::string& original, std::size_t steps);

/// Runs the chaining schedule: each output feeds the next transformation.
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

/// Builds the full Table II dataset of one year: one ChatGPT-generated code
/// per challenge, one human author's 8 codes, both pushed through NCT and
/// CT for `steps` rounds each (200 codes per challenge at steps = 50).
/// Each (setting, challenge) chain drives its own seeded SyntheticLlm, so
/// the result depends on `yearData` and `steps` alone.
[[nodiscard]] TransformedDataset buildTransformedDataset(
    const corpus::YearDataset& yearData, std::size_t steps = 50);

}  // namespace sca::llm
