// Dataset builder: renders the (author x challenge) sample grid of one
// simulated GCJ year (Table I: 204 authors x 8 challenges = 1,632 samples).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "corpus/authors.hpp"
#include "corpus/challenges.hpp"

namespace sca::corpus {

/// One source-code sample with its provenance.
struct CodeSample {
  std::string source;
  int authorId = -1;       // 0..N-1 for humans, -1 for LLM-origin samples
  int challengeIndex = 0;  // 0..7 within the year
  std::string origin;      // "human", "chatgpt", "chatgpt+nct", ...
};

struct YearDataset {
  int year = 0;
  std::vector<Author> authors;
  std::vector<const Challenge*> challenges;
  std::vector<CodeSample> samples;  // one per (author, challenge)
};

/// Builds the full human corpus of a year deterministically.
[[nodiscard]] YearDataset buildYearDataset(int year,
                                           std::size_t authorCount = 204);

/// Renders one author's solution to one challenge (the primitive the
/// dataset builder and the transformation experiments share).
[[nodiscard]] std::string renderSolution(const Author& author,
                                         const Challenge& challenge, int year,
                                         int challengeIndex);

}  // namespace sca::corpus
