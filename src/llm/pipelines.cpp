#include "llm/pipelines.hpp"

#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "style/archetypes.hpp"

namespace sca::llm {

std::string_view settingLabel(Setting setting) noexcept {
  switch (setting) {
    case Setting::ChatGptNct: return "+N";
    case Setting::ChatGptCt: return "+C";
    case Setting::HumanNct: return "~N";
    case Setting::HumanCt: return "~C";
  }
  return "?";
}

const std::vector<Setting>& allSettings() {
  static const std::vector<Setting> kSettings = {
      Setting::ChatGptNct,
      Setting::ChatGptCt,
      Setting::HumanNct,
      Setting::HumanCt,
  };
  return kSettings;
}

std::vector<std::string> nonChainingTransform(SyntheticLlm& llm,
                                              const std::string& original,
                                              std::size_t steps) {
  std::vector<std::string> out;
  out.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    out.push_back(llm.transform(original));
  }
  return out;
}

std::vector<std::string> chainingTransform(SyntheticLlm& llm,
                                           const std::string& original,
                                           std::size_t steps) {
  std::vector<std::string> out;
  out.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    out.push_back(llm.transform(i == 0 ? original : out.back()));
  }
  return out;
}

TransformedDataset buildTransformedDataset(const corpus::YearDataset& yearData,
                                           std::size_t steps) {
  TransformedDataset out;
  out.year = yearData.year;
  out.stepsPerSetting = steps;

  // One human author per year feeds the ±N / ±C settings (paper §IV-B:
  // "we selected one author from each year"). The paper's 2017 run behaved
  // as if that author's style was familiar to the model (±N stayed near 2.5
  // styles) while 2018/2019 authors were clearly out-of-distribution (±N of
  // 9.6 / 7.1). We reproduce the regime by picking the author whose style
  // is nearest to the repertoire for 2017 and farthest for other years.
  const bool pickFamiliar = yearData.year == 2017;
  int pick = 0;
  double best = pickFamiliar ? 2.0 : -1.0;
  for (const corpus::Author& author : yearData.authors) {
    // 2017: nearest to the model's default style (archetype 0) so that its
    // rewrites collapse onto the dominant label, as in Table V's A49.
    const double d =
        pickFamiliar
            ? style::StyleProfile::distance(author.profile,
                                            style::archetypePool()[0])
            : style::nearestArchetype(author.profile).distance;
    // Exact twins (distance 0) are excluded: the paper's author was a real
    // participant, not the model itself.
    if (pickFamiliar) {
      if (d > 1e-9 && d < best) {
        best = d;
        pick = author.id;
      }
    } else if (d > best) {
      best = d;
      pick = author.id;
    }
  }
  out.humanAuthorId = pick;

  const std::size_t challengeCount = yearData.challenges.size();

  // Originals are independent per challenge: each generation conversation
  // is seeded by the challenge index alone, so they parallelize without
  // changing a byte of output.
  struct Originals {
    std::string chatgpt;
    std::string human;
  };
  std::vector<Originals> originals = runtime::parallelMap<Originals>(
      challengeCount, [&](std::size_t c) {
        const corpus::Challenge& challenge = *yearData.challenges[c];
        LlmOptions genOptions;
        genOptions.year = yearData.year;
        genOptions.seed = util::combine64(util::hash64("gen"), c);
        SyntheticLlm genLlm(genOptions);
        Originals o;
        o.chatgpt = genLlm.generate(challenge);
        o.human = corpus::renderSolution(
            yearData.authors[static_cast<std::size_t>(out.humanAuthorId)],
            challenge, yearData.year, static_cast<int>(c));
        return o;
      });
  out.chatgptOriginals.reserve(challengeCount);
  out.humanOriginals.reserve(challengeCount);
  for (Originals& o : originals) {
    out.chatgptOriginals.push_back(std::move(o.chatgpt));
    out.humanOriginals.push_back(std::move(o.human));
  }

  // A dedicated "conversation" per (setting, challenge) keeps the schedules
  // independent, as separate ChatGPT sessions would be — which is also what
  // makes them parallel tasks: each chain derives its seed from its own
  // (setting, challenge) pair, stays internally sequential (CT feeds every
  // output into the next step), and runs concurrently with the rest.
  // Ordered collection + the serial assembly loop below reproduce the
  // serial build byte for byte.
  const std::vector<Setting>& settings = allSettings();
  const std::size_t chainCount = challengeCount * settings.size();
  const std::vector<std::vector<std::string>> chains =
      runtime::parallelMap<std::vector<std::string>>(
          chainCount, [&](std::size_t task) {
            const std::size_t c = task / settings.size();
            const Setting setting = settings[task % settings.size()];
            const bool chatgptOrigin = setting == Setting::ChatGptNct ||
                                       setting == Setting::ChatGptCt;
            const bool chaining =
                setting == Setting::ChatGptCt || setting == Setting::HumanCt;
            const std::string& original = chatgptOrigin
                                              ? out.chatgptOriginals[c]
                                              : out.humanOriginals[c];

            obs::Span chainSpan(
                "llm_chain_" + std::string(settingLabel(setting)), "llm");
            LlmOptions llmOptions;
            llmOptions.year = yearData.year;
            llmOptions.seed =
                util::combine64(util::hash64(settingLabel(setting)), c);
            SyntheticLlm llm(llmOptions);
            return chaining ? chainingTransform(llm, original, steps)
                            : nonChainingTransform(llm, original, steps);
          });

  out.samples.reserve(chainCount * steps);
  for (std::size_t task = 0; task < chainCount; ++task) {
    const std::size_t c = task / settings.size();
    const Setting setting = settings[task % settings.size()];
    const std::vector<std::string>& transformed = chains[task];
    for (std::size_t i = 0; i < transformed.size(); ++i) {
      TransformedSample sample;
      sample.source = transformed[i];
      sample.challengeIndex = static_cast<int>(c);
      sample.setting = setting;
      sample.step = static_cast<int>(i) + 1;
      out.samples.push_back(std::move(sample));
    }
  }
  return out;
}

}  // namespace sca::llm
