// Term vocabularies fitted on training data.
//
// Lexical unigram features (identifier words) and syntactic bigram
// features (parent>child statement kinds) are open-vocabulary; we fix
// their columns by collecting the top-k terms by document frequency on the
// TRAINING corpus only — test samples never extend the vocabulary (no
// leakage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sca::features {

/// One document as its distinct terms with their occurrence counts: the
/// form a vocabulary is fitted on and projects. The term text lives in one
/// buffer owned by the bag, so the number of allocations does not grow
/// with the number of terms. total() counts every occurrence, which makes
/// it the L1 norm of the document's term frequencies, out-of-vocabulary
/// terms included.
class TermBag {
 public:
  TermBag() = default;

  /// The bag of a term list.
  explicit TermBag(const std::vector<std::string>& document);

  /// Counts one occurrence of `term`.
  void add(std::string_view term);

  /// Drops the lookup index add() builds and trims spare capacity, for a
  /// bag that is done counting. A later add() rebuilds the index.
  void shrinkToFit();

  [[nodiscard]] std::size_t distinct() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] std::string_view term(std::size_t i) const noexcept {
    return std::string_view(text_).substr(entries_[i].offset,
                                          entries_[i].length);
  }
  [[nodiscard]] std::size_t count(std::size_t i) const noexcept {
    return entries_[i].count;
  }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  struct Entry {
    std::uint32_t offset = 0;  // into text_
    std::uint32_t length = 0;
    std::uint32_t count = 0;
  };

  void reindex(std::size_t slotCount);

  std::string text_;            // every distinct term, back to back
  std::vector<Entry> entries_;  // in first-occurrence order
  // Open-addressing index over entries_ (entry index + 1; 0 = empty),
  // kept at most half full.
  std::vector<std::uint32_t> slots_;
  std::size_t total_ = 0;
};

class Vocabulary {
 public:
  /// Builds a vocabulary of the `maxTerms` most document-frequent terms.
  /// `documents` holds one term list per training sample. Ties break
  /// alphabetically so fitting is deterministic.
  static Vocabulary fit(const std::vector<std::vector<std::string>>& documents,
                        std::size_t maxTerms);

  /// fit() over documents already counted into bags.
  static Vocabulary fit(const std::vector<const TermBag*>& documents,
                        std::size_t maxTerms);

  /// Rebuilds a vocabulary from an explicit term list (deserialization).
  static Vocabulary fromTerms(std::vector<std::string> terms);

  /// Column index of a term, if in vocabulary.
  [[nodiscard]] std::optional<std::size_t> indexOf(
      std::string_view term) const;

  [[nodiscard]] std::size_t size() const noexcept { return terms_.size(); }
  [[nodiscard]] const std::vector<std::string>& terms() const noexcept {
    return terms_;
  }

  /// Appends the term-frequency vector (L1-normalized) of `document` to
  /// `out`: size() columns, all zero for an empty document.
  void project(const TermBag& document, std::vector<double>& out) const;

  /// project() of one term list into a fresh vector.
  [[nodiscard]] std::vector<double> vectorize(
      const std::vector<std::string>& document) const;

 private:
  /// Heterogeneous hasher so indexOf(string_view) never materializes a
  /// std::string — indexOf is called once per distinct term per sample.
  struct TermHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view term) const noexcept {
      return std::hash<std::string_view>{}(term);
    }
  };

  std::vector<std::string> terms_;
  std::unordered_map<std::string, std::size_t, TermHash, std::equal_to<>>
      index_;
};

}  // namespace sca::features
