#include "features/vocabulary.hpp"

#include <algorithm>

namespace sca::features {

TermBag::TermBag(const std::vector<std::string>& document) {
  for (const std::string& term : document) add(term);
}

void TermBag::add(std::string_view term) {
  ++total_;
  if (2 * (entries_.size() + 1) > slots_.size()) {
    std::size_t slotCount = 64;
    while (slotCount < 4 * (entries_.size() + 1)) slotCount *= 2;
    reindex(slotCount);
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = std::hash<std::string_view>{}(term) & mask;;
       s = (s + 1) & mask) {
    if (slots_[s] == 0) {
      entries_.push_back({static_cast<std::uint32_t>(text_.size()),
                          static_cast<std::uint32_t>(term.size()), 1});
      slots_[s] = static_cast<std::uint32_t>(entries_.size());
      text_.append(term);
      return;
    }
    if (this->term(slots_[s] - 1) == term) {
      ++entries_[slots_[s] - 1].count;
      return;
    }
  }
}

void TermBag::reindex(std::size_t slotCount) {
  entries_.reserve(slotCount / 2);  // what fits before the next reindex
  slots_.assign(slotCount, 0);
  const std::size_t mask = slotCount - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t s = std::hash<std::string_view>{}(term(i)) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(i + 1);
  }
}

void TermBag::shrinkToFit() {
  slots_ = {};
  text_.shrink_to_fit();
  entries_.shrink_to_fit();
}

Vocabulary Vocabulary::fit(
    const std::vector<std::vector<std::string>>& documents,
    std::size_t maxTerms) {
  const std::vector<TermBag> bags(documents.begin(), documents.end());
  std::vector<const TermBag*> views;
  views.reserve(bags.size());
  for (const TermBag& bag : bags) views.push_back(&bag);
  return fit(views, maxTerms);
}

Vocabulary Vocabulary::fit(const std::vector<const TermBag*>& documents,
                           std::size_t maxTerms) {
  // Hashed counting, one increment per distinct term of a document; the
  // (freq desc, term asc) sort below imposes a total order, so the fitted
  // term list is deterministic regardless of hash iteration order.
  std::unordered_map<std::string_view, std::size_t> docFreq;
  for (const TermBag* document : documents) {
    for (std::size_t i = 0; i < document->distinct(); ++i) {
      ++docFreq[document->term(i)];
    }
  }
  std::vector<std::pair<std::string_view, std::size_t>> ranked(
      docFreq.begin(), docFreq.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > maxTerms) ranked.resize(maxTerms);

  std::vector<std::string> terms;
  terms.reserve(ranked.size());
  for (const auto& [term, freq] : ranked) terms.emplace_back(term);
  return fromTerms(std::move(terms));
}

Vocabulary Vocabulary::fromTerms(std::vector<std::string> terms) {
  Vocabulary vocab;
  vocab.terms_ = std::move(terms);
  vocab.index_.reserve(vocab.terms_.size());
  for (std::size_t i = 0; i < vocab.terms_.size(); ++i) {
    vocab.index_[vocab.terms_[i]] = i;
  }
  return vocab;
}

std::optional<std::size_t> Vocabulary::indexOf(std::string_view term) const {
  const auto it = index_.find(term);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void Vocabulary::project(const TermBag& document,
                         std::vector<double>& out) const {
  const std::size_t begin = out.size();
  out.resize(begin + terms_.size(), 0.0);
  // double(count) is exactly `count` additions of +1.0, so a bag projects
  // to the same bits as tallying the document one occurrence at a time.
  for (std::size_t i = 0; i < document.distinct(); ++i) {
    if (const auto idx = indexOf(document.term(i))) {
      out[begin + *idx] = static_cast<double>(document.count(i));
    }
  }
  if (document.total() == 0) return;
  const double norm = static_cast<double>(document.total());
  for (std::size_t j = begin; j < out.size(); ++j) out[j] /= norm;
}

std::vector<double> Vocabulary::vectorize(
    const std::vector<std::string>& document) const {
  std::vector<double> vec;
  project(TermBag(document), vec);
  return vec;
}

}  // namespace sca::features
