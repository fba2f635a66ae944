#include "corpus/dataset.hpp"

#include "style/apply.hpp"
#include "style/infer.hpp"
#include "util/rng.hpp"

namespace sca::corpus {

/// Real authors are not machines: individual solutions deviate from the
/// author's habitual style on the odd dimension (an unusual one-liner, a
/// skipped comment, a different loop form). This per-sample wobble is what
/// keeps the simulated attribution task at the paper's difficulty level
/// (fold accuracies in the 80-95% band rather than near-perfect).
constexpr double kStyleWobble = 0.025;

std::string renderSolution(const Author& author, const Challenge& challenge,
                           int year, int challengeIndex) {
  // Per-sample stream: naming synonym draws and comment placement vary a
  // little across an author's challenges (as they do for real authors),
  // while profile-level dimensions stay fixed up to the wobble.
  util::Rng rng(util::combine64(
      util::hash64("gcj-sample"),
      util::combine64(static_cast<std::uint64_t>(year),
                      util::combine64(static_cast<std::uint64_t>(author.id),
                                      static_cast<std::uint64_t>(challengeIndex)))));
  util::Rng wobbleRng = rng.derive("wobble");
  const style::StyleProfile sampleProfile =
      style::mutateProfile(author.profile, wobbleRng, kStyleWobble);
  return style::applyStyle(challenge.ir, sampleProfile, rng);
}

YearDataset buildYearDataset(int year, std::size_t authorCount) {
  YearDataset ds;
  ds.year = year;
  ds.authors = makeAuthorPopulation(year, authorCount);
  ds.challenges = challengesForYear(year);
  ds.samples.reserve(ds.authors.size() * ds.challenges.size());
  for (const Author& author : ds.authors) {
    for (std::size_t c = 0; c < ds.challenges.size(); ++c) {
      CodeSample sample;
      sample.source = renderSolution(author, *ds.challenges[c], year,
                                     static_cast<int>(c));
      sample.authorId = author.id;
      sample.challengeIndex = static_cast<int>(c);
      sample.origin = "human";
      ds.samples.push_back(std::move(sample));
    }
  }
  return ds;
}

}  // namespace sca::corpus
