// Stylometric feature extraction (Caliskan-Islam et al., §III-A of the
// paper): lexical + layout + syntactic features over one source file.
//
// Lexical features are computed on the raw token stream (identifier
// unigrams, keyword frequencies, literal usage, naming-convention ratios),
// layout features on the raw text (lexer/layout.hpp), and syntactic
// features on the parsed AST (node-kind frequencies, depth, parent>child
// bigrams, decomposition shape).
//
// The extractor follows the fit/transform protocol: open vocabularies
// (identifier words, statement bigrams) are frozen on the training set.
#pragma once

#include <string>
#include <vector>

#include "features/vocabulary.hpp"

namespace sca::features {

enum class FeatureFamily { Lexical, Layout, Syntactic };

[[nodiscard]] std::string_view familyName(FeatureFamily family) noexcept;

struct ExtractorConfig {
  std::size_t identifierVocabulary = 150;  // token-unigram columns
  std::size_t bigramVocabulary = 100;      // stmt-bigram columns
  // Family switches for the ablation bench.
  bool useLexical = true;
  bool useLayout = true;
  bool useSyntactic = true;
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(ExtractorConfig config = {});

  /// Rebuilds a fitted extractor from explicit vocabularies
  /// (deserialization path; the normal path is fit()).
  FeatureExtractor(ExtractorConfig config, Vocabulary identifierVocab,
                   Vocabulary bigramVocab);

  /// Freezes the vocabularies on the training corpus.
  void fit(const std::vector<std::string>& sources);

  /// Extracts the feature vector of one source file. Requires fit().
  [[nodiscard]] std::vector<double> transform(const std::string& source) const;

  /// transform() minus the process-global analysis cache: lex + layout +
  /// parse run fresh and nothing is retained.
  /// Bit-identical output to transform(). It is the cold path, kept so a
  /// file never seen before can be timed on its own (the per-layer
  /// benchmark's features.transform layer) and checked against the memo's
  /// output (the golden warm/cold check).
  [[nodiscard]] std::vector<double> transformUncached(
      const std::string& source) const;

  /// transform() over many sources.
  [[nodiscard]] std::vector<std::vector<double>> transformAll(
      const std::vector<std::string>& sources) const;

  [[nodiscard]] std::size_t dimension() const noexcept {
    return names_.size();
  }
  [[nodiscard]] const std::vector<std::string>& featureNames() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<FeatureFamily>& featureFamilies()
      const noexcept {
    return families_;
  }
  [[nodiscard]] const ExtractorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Vocabulary& identifierVocabulary() const noexcept {
    return identifierVocab_;
  }
  [[nodiscard]] const Vocabulary& bigramVocabulary() const noexcept {
    return bigramVocab_;
  }

 private:
  void buildSchema();

  ExtractorConfig config_;
  Vocabulary identifierVocab_;
  Vocabulary bigramVocab_;
  std::vector<std::string> names_;
  std::vector<FeatureFamily> families_;
  bool fitted_ = false;
};

/// Lowercase word terms of every identifier token in `source`
/// ("numCases" -> num, cases): the terms of the identifier vocabulary.
[[nodiscard]] std::vector<std::string> identifierTerms(
    const std::string& source);

// ------------------------------------------------------- analysis cache --
// transform()/fit() front their lex+layout+parse work with a process-global
// memoization cache keyed by source content. Each entry is a feature
// record: every column no vocabulary can change, computed once, plus the
// source's identifier words and statement bigrams as term bags (distinct
// terms with counts and a total). The record is extractor-independent
// (vocabularies only affect the projection), so a sample re-extracted
// across CV folds, oracle labeling and re-training pays for lexing,
// parsing and those columns exactly once, and a fold's projection copies
// the fixed columns and looks up each distinct term once. Reads take a
// shared lock; the cache is safe from parallel extraction tasks, and
// results are identical with the cache cleared, cold or warm.

struct AnalysisCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};

/// Hits and misses since the last clearAnalysisCache() (or process start);
/// entries = current resident analyses.
[[nodiscard]] AnalysisCacheStats analysisCacheStats();

/// Drops every cached analysis and restarts the hit/miss counts.
void clearAnalysisCache();

}  // namespace sca::features
