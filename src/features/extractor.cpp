#include "features/extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "ast/parser.hpp"
#include "ast/visit.hpp"
#include "lexer/layout.hpp"
#include "lexer/lexer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace sca::features {
namespace {

/// Everything a projection needs from one source, computed once. The three
/// column blocks hold every vocabulary-independent column of their family
/// in schema order; the two bags are what the fitted vocabularies project.
/// No token text survives the analysis, so a memo entry stays small
/// (about 1.5 KB on the 2017 corpus).
struct FeatureRecord {
  std::vector<double> lexical;    // kw: ratios, then the 13 lex: scalars
  std::vector<double> layout;     // the 16 lay: columns
  std::vector<double> syntactic;  // stmt:/expr: ratios, then 9 syn: scalars
  TermBag identifiers;            // lowercase identifier words
  TermBag bigrams;                // parent>child statement-kind bigrams
};

/// Lex + layout + parse of one source into its record, bypassing the memo
/// (defined below, after the column helpers it uses).
FeatureRecord computeRecord(const std::string& source);

/// Process-global content-keyed memo of records (see extractor.hpp).
/// Bounded: past kMaxEntries the cache is dropped wholesale rather than
/// evicted piecemeal — the working set of one bench run (a few thousand
/// samples) fits comfortably, so overflow only happens across unrelated
/// corpora where stale entries would never hit again anyway.
class AnalysisCache {
 public:
  static constexpr std::size_t kMaxEntries = 32768;

  std::shared_ptr<const FeatureRecord> get(const std::string& source) {
    analyzeCalls_.add();
    {
      std::shared_lock lock(mutex_);
      const auto it = entries_.find(source);
      if (it != entries_.end()) {
        hits_.add();
        return it->second;
      }
    }

    FeatureRecord computed = computeRecord(source);
    computed.identifiers.shrinkToFit();  // the memo keeps it: trim it
    computed.bigrams.shrinkToFit();
    auto record = std::make_shared<const FeatureRecord>(std::move(computed));

    std::unique_lock lock(mutex_);
    misses_.add();
    if (entries_.size() >= kMaxEntries) entries_.clear();
    return entries_.try_emplace(source, std::move(record)).first->second;
  }

  AnalysisCacheStats stats() const {
    auto& registry = obs::MetricsRegistry::global();
    std::shared_lock lock(mutex_);
    AnalysisCacheStats out;
    out.hits = registry.counterValue("features_cache_hits") - hitsAtClear_;
    out.misses =
        registry.counterValue("features_cache_misses") - missesAtClear_;
    out.entries = entries_.size();
    return out;
  }

  void clear() {
    std::unique_lock lock(mutex_);
    entries_.clear();
    // The registry counters are lifetime totals; stats() reports the
    // hits and misses since this point by subtracting these values.
    auto& registry = obs::MetricsRegistry::global();
    hitsAtClear_ = registry.counterValue("features_cache_hits");
    missesAtClear_ = registry.counterValue("features_cache_misses");
  }

  static AnalysisCache& global() {
    static AnalysisCache instance;
    return instance;
  }

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const FeatureRecord>>
      entries_;
  std::uint64_t hitsAtClear_ = 0;    // guarded by mutex_
  std::uint64_t missesAtClear_ = 0;  // guarded by mutex_
  // Total analyze() calls are event-deterministic (stable); the hit/miss
  // split is not — two threads can both miss one key before either inserts
  // it — so both are kRuntime, kept out of the stable section.
  obs::Counter analyzeCalls_ =
      obs::MetricsRegistry::global().counter("features_analyze_calls");
  obs::Counter hits_ = obs::MetricsRegistry::global().counter(
      "features_cache_hits", obs::Stability::kRuntime);
  obs::Counter misses_ = obs::MetricsRegistry::global().counter(
      "features_cache_misses", obs::Stability::kRuntime);
};

std::shared_ptr<const FeatureRecord> analyze(const std::string& source) {
  return AnalysisCache::global().get(source);
}

double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Naming-convention counters over identifier tokens of length >= 2.
struct NamingCounts {
  std::size_t snake = 0, camel = 0, pascal = 0, lower = 0, hungarian = 0;
  std::size_t total = 0;
  double meanLength = 0.0;
  double maxLength = 0.0;
  std::size_t distinct = 0;
};

// Identifiers are ASCII by construction (the lexer's ident class), so
// plain range checks replace the locale-routed <cctype> calls here.
constexpr bool isAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
constexpr bool isAsciiLower(char c) { return c >= 'a' && c <= 'z'; }

NamingCounts countNaming(const lexer::TokenStream& tokens) {
  NamingCounts c;
  double lengthSum = 0.0;
  TermBag names;  // hashing the distinct names beats sorting every use
  for (const lexer::Token& t : tokens) {
    if (!t.is(lexer::TokenKind::Identifier)) continue;
    const std::string_view name = t.text;
    names.add(name);
    lengthSum += static_cast<double>(name.size());
    c.maxLength = std::max(c.maxLength, static_cast<double>(name.size()));
    ++c.total;
    if (name.size() < 2) continue;
    const bool hasUnderscore = name.find('_') != std::string::npos;
    const bool startsUpper = isAsciiUpper(name[0]);
    bool innerUpper = false;
    for (std::size_t i = 1; i < name.size(); ++i) {
      if (isAsciiUpper(name[i])) innerUpper = true;
    }
    constexpr std::string_view kHungarianPrefixes = "ndbcsvf";
    if (name.size() >= 3 &&
        kHungarianPrefixes.find(name[0]) != std::string_view::npos &&
        isAsciiUpper(name[1])) {
      ++c.hungarian;
    } else if (hasUnderscore) {
      ++c.snake;
    } else if (startsUpper) {
      ++c.pascal;
    } else if (innerUpper) {
      ++c.camel;
    } else {
      ++c.lower;
    }
  }
  if (c.total > 0) c.meanLength = lengthSum / static_cast<double>(c.total);
  c.distinct = names.distinct();
  return c;
}

}  // namespace

std::string_view familyName(FeatureFamily family) noexcept {
  switch (family) {
    case FeatureFamily::Lexical: return "lexical";
    case FeatureFamily::Layout: return "layout";
    case FeatureFamily::Syntactic: return "syntactic";
  }
  return "?";
}

namespace {

/// Calls emit(word) for each lowercase word of every identifier token,
/// splitting into one reused buffer. Word boundaries replicate
/// util::splitIdentifier: '_' separators plus camelCase transitions, where
/// an acronym run only breaks before its trailing lowercase ("HTTPServer"
/// -> "http", "server"). `lastUpper` carries the original case of
/// word.back(), since the buffer holds the already-lowered character.
template <typename Emit>
void forEachIdentifierWord(const lexer::TokenStream& tokens, Emit&& emit) {
  std::string word;
  auto flush = [&] {
    if (word.empty()) return;
    emit(std::string_view(word));
    word.clear();
  };
  bool lastUpper = false;
  for (const lexer::Token& t : tokens) {
    if (!t.is(lexer::TokenKind::Identifier)) continue;
    const std::string_view name = t.text;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      if (c == '_') {
        flush();
        continue;
      }
      const bool upper = isAsciiUpper(c);
      if (upper && !word.empty()) {
        const bool nextLower = i + 1 < name.size() && isAsciiLower(name[i + 1]);
        if (!lastUpper || nextLower) flush();
      }
      word.push_back(upper ? static_cast<char>(c + 32) : c);
      lastUpper = upper;
    }
    flush();
  }
}

std::vector<double> lexicalColumns(const lexer::TokenStream& tokens,
                                   std::size_t lineCount) {
  // Keyword columns tally into a fixed array indexed by cppKeywordIndex
  // (same order as cppKeywords(), so the emitted columns line up with the
  // schema) — no string-keyed map on the per-sample path.
  std::size_t tokenCount = 0;
  std::vector<std::size_t> keywordCounts(lexer::cppKeywordCount(), 0);
  std::size_t intLits = 0, floatLits = 0, stringLits = 0, charLits = 0;
  std::size_t preprocessor = 0;
  for (const lexer::Token& t : tokens) {
    if (t.is(lexer::TokenKind::EndOfFile)) continue;
    ++tokenCount;
    switch (t.kind) {
      case lexer::TokenKind::Keyword: {
        // An out-of-table keyword text just doesn't count.
        const std::size_t i = lexer::cppKeywordIndex(t.text);
        if (i < keywordCounts.size()) ++keywordCounts[i];
        break;
      }
      case lexer::TokenKind::IntLiteral: ++intLits; break;
      case lexer::TokenKind::FloatLiteral: ++floatLits; break;
      case lexer::TokenKind::StringLiteral: ++stringLits; break;
      case lexer::TokenKind::CharLiteral: ++charLits; break;
      case lexer::TokenKind::Preprocessor: ++preprocessor; break;
      default: break;
    }
  }

  std::vector<double> vec;
  vec.reserve(keywordCounts.size() + 13);
  for (const std::size_t count : keywordCounts) {
    vec.push_back(ratio(count, tokenCount));
  }
  const NamingCounts naming = countNaming(tokens);
  vec.push_back(naming.meanLength / 16.0);
  vec.push_back(naming.maxLength / 32.0);
  vec.push_back(ratio(naming.distinct, naming.total));
  const std::size_t classified = naming.snake + naming.camel + naming.pascal +
                                 naming.lower + naming.hungarian;
  vec.push_back(ratio(naming.snake, classified));
  vec.push_back(ratio(naming.camel, classified));
  vec.push_back(ratio(naming.pascal, classified));
  vec.push_back(ratio(naming.lower, classified));
  vec.push_back(ratio(naming.hungarian, classified));
  vec.push_back(ratio(intLits, tokenCount));
  vec.push_back(ratio(floatLits, tokenCount));
  vec.push_back(ratio(stringLits, tokenCount));
  vec.push_back(ratio(charLits, tokenCount));
  vec.push_back(ratio(preprocessor, lineCount));
  return vec;
}

std::vector<double> layoutColumns(const lexer::LayoutMetrics& m) {
  return {std::log1p(static_cast<double>(m.lineCount)) / 6.0,
          m.blankLineRatio(),
          m.commentCharRatio(),
          ratio(m.lineComments, m.lineCount),
          ratio(m.blockComments, m.lineCount),
          m.tabIndentRatio(),
          m.meanIndentWidth / 16.0,
          ratio(m.indentWidth2, m.indentedLines),
          ratio(m.indentWidth4, m.indentedLines),
          ratio(m.indentWidth8, m.indentedLines),
          m.allmanBraceRatio(),
          m.spacedOpRatio(),
          m.spaceAfterCommaRatio(),
          m.spaceAfterKeywordRatio(),
          m.meanLineLength / 80.0,
          static_cast<double>(m.maxLineLength) / 200.0};
}

/// The syntactic columns of `unit`; counts its bigrams into `bigrams`.
std::vector<double> syntacticColumns(const ast::TranslationUnit& unit,
                                     TermBag& bigrams) {
  // One fused traversal for kind counts, depth stats and bigrams.
  const ast::UnitScan scan = ast::scanUnit(unit);
  std::vector<double> vec;
  vec.reserve(scan.stmtKindCounts.size() + scan.exprKindCounts.size() + 9);
  for (const std::uint64_t count : scan.stmtKindCounts) {
    vec.push_back(ratio(count, scan.stmtTotal));
  }
  for (const std::uint64_t count : scan.exprKindCounts) {
    vec.push_back(ratio(count, scan.exprTotal));
  }
  const auto functionCount = static_cast<double>(unit.functions.size());
  double paramSum = 0.0;
  for (const ast::Function& fn : unit.functions) {
    paramSum += static_cast<double>(fn.params.size());
  }
  vec.push_back(static_cast<double>(scan.depth.maxDepth) / 10.0);
  vec.push_back(scan.depth.mean() / 5.0);
  vec.push_back(functionCount / 5.0);
  vec.push_back(unit.functions.empty()
                    ? 0.0
                    : static_cast<double>(scan.stmtTotal) /
                          (30.0 * functionCount));
  vec.push_back(unit.functions.empty() ? 0.0
                                       : paramSum / functionCount / 4.0);
  vec.push_back(static_cast<double>(unit.aliases.size()));
  vec.push_back(unit.usingNamespaceStd ? 1.0 : 0.0);
  vec.push_back(static_cast<double>(unit.includes.size()) / 6.0);
  const bool bitsHeader = std::find(unit.includes.begin(),
                                    unit.includes.end(),
                                    "bits/stdc++.h") != unit.includes.end();
  vec.push_back(bitsHeader ? 1.0 : 0.0);
  for (const std::string& bigram : scan.bigrams) bigrams.add(bigram);
  return vec;
}

FeatureRecord computeRecord(const std::string& source) {
  const lexer::TokenStream tokens = lexer::tokenize(source);
  const lexer::LayoutMetrics layout = lexer::computeLayoutMetrics(source);
  FeatureRecord r;
  r.lexical = lexicalColumns(tokens, layout.lineCount);
  forEachIdentifierWord(
      tokens, [&](std::string_view word) { r.identifiers.add(word); });
  r.layout = layoutColumns(layout);
  // Parse from the stream we already lexed — tokenizing twice per
  // analysis used to be the second-largest cost of an analysis.
  r.syntactic = syntacticColumns(ast::parse(tokens).unit, r.bigrams);
  return r;
}

}  // namespace

std::vector<std::string> identifierTerms(const std::string& source) {
  std::vector<std::string> terms;
  forEachIdentifierWord(lexer::tokenize(source),
                        [&](std::string_view word) { terms.emplace_back(word); });
  return terms;
}

FeatureExtractor::FeatureExtractor(ExtractorConfig config) : config_(config) {
  buildSchema();  // fixed columns are valid even before fit()
}

FeatureExtractor::FeatureExtractor(ExtractorConfig config,
                                   Vocabulary identifierVocab,
                                   Vocabulary bigramVocab)
    : config_(config),
      identifierVocab_(std::move(identifierVocab)),
      bigramVocab_(std::move(bigramVocab)) {
  buildSchema();
  fitted_ = true;
}

void FeatureExtractor::fit(const std::vector<std::string>& sources) {
  // The batch lex->parse->summarize work is the pipeline's "analysis"
  // phase (one scope per batch call, on the calling thread, so the
  // CI slowdown-injection hook fires O(1) times per run).
  obs::Span phase("analysis", obs::kPhaseCategory);
  // Records come straight off the shared memo, in parallel; the
  // vocabularies then count document frequency once per distinct term of
  // each record's bags, serially (order-independent and cheap).
  const std::vector<std::shared_ptr<const FeatureRecord>> records =
      runtime::parallelMap<std::shared_ptr<const FeatureRecord>>(
          sources.size(), [&](std::size_t i) { return analyze(sources[i]); },
          runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
  std::vector<const TermBag*> identifierDocs;
  std::vector<const TermBag*> bigramDocs;
  identifierDocs.reserve(records.size());
  bigramDocs.reserve(records.size());
  for (const std::shared_ptr<const FeatureRecord>& record : records) {
    identifierDocs.push_back(&record->identifiers);
    bigramDocs.push_back(&record->bigrams);
  }
  identifierVocab_ =
      Vocabulary::fit(identifierDocs, config_.identifierVocabulary);
  bigramVocab_ = Vocabulary::fit(bigramDocs, config_.bigramVocabulary);
  buildSchema();
  fitted_ = true;
}

void FeatureExtractor::buildSchema() {
  names_.clear();
  families_.clear();
  auto add = [&](FeatureFamily family, std::string name) {
    families_.push_back(family);
    names_.push_back(std::move(name));
  };

  if (config_.useLexical) {
    for (const std::string& kw : lexer::cppKeywords()) {
      add(FeatureFamily::Lexical, "kw:" + kw);
    }
    add(FeatureFamily::Lexical, "lex:ident-mean-len");
    add(FeatureFamily::Lexical, "lex:ident-max-len");
    add(FeatureFamily::Lexical, "lex:ident-distinct-ratio");
    add(FeatureFamily::Lexical, "lex:name-snake");
    add(FeatureFamily::Lexical, "lex:name-camel");
    add(FeatureFamily::Lexical, "lex:name-pascal");
    add(FeatureFamily::Lexical, "lex:name-lower");
    add(FeatureFamily::Lexical, "lex:name-hungarian");
    add(FeatureFamily::Lexical, "lex:int-literals");
    add(FeatureFamily::Lexical, "lex:float-literals");
    add(FeatureFamily::Lexical, "lex:string-literals");
    add(FeatureFamily::Lexical, "lex:char-literals");
    add(FeatureFamily::Lexical, "lex:preprocessor-lines");
    for (const std::string& term : identifierVocab_.terms()) {
      add(FeatureFamily::Lexical, "uni:" + term);
    }
  }
  if (config_.useLayout) {
    add(FeatureFamily::Layout, "lay:line-count");
    add(FeatureFamily::Layout, "lay:blank-ratio");
    add(FeatureFamily::Layout, "lay:comment-char-ratio");
    add(FeatureFamily::Layout, "lay:line-comments-per-line");
    add(FeatureFamily::Layout, "lay:block-comments-per-line");
    add(FeatureFamily::Layout, "lay:tab-indent-ratio");
    add(FeatureFamily::Layout, "lay:mean-indent");
    add(FeatureFamily::Layout, "lay:indent2-ratio");
    add(FeatureFamily::Layout, "lay:indent4-ratio");
    add(FeatureFamily::Layout, "lay:indent8-ratio");
    add(FeatureFamily::Layout, "lay:allman-ratio");
    add(FeatureFamily::Layout, "lay:spaced-ops-ratio");
    add(FeatureFamily::Layout, "lay:space-after-comma-ratio");
    add(FeatureFamily::Layout, "lay:space-after-keyword-ratio");
    add(FeatureFamily::Layout, "lay:mean-line-length");
    add(FeatureFamily::Layout, "lay:max-line-length");
  }
  if (config_.useSyntactic) {
    for (const std::string& kind : ast::allStmtKindNames()) {
      add(FeatureFamily::Syntactic, "stmt:" + kind);
    }
    for (const std::string& kind : ast::allExprKindNames()) {
      add(FeatureFamily::Syntactic, "expr:" + kind);
    }
    add(FeatureFamily::Syntactic, "syn:max-depth");
    add(FeatureFamily::Syntactic, "syn:mean-depth");
    add(FeatureFamily::Syntactic, "syn:function-count");
    add(FeatureFamily::Syntactic, "syn:stmts-per-function");
    add(FeatureFamily::Syntactic, "syn:mean-params");
    add(FeatureFamily::Syntactic, "syn:alias-count");
    add(FeatureFamily::Syntactic, "syn:using-namespace-std");
    add(FeatureFamily::Syntactic, "syn:include-count");
    add(FeatureFamily::Syntactic, "syn:bits-header");
    for (const std::string& term : bigramVocab_.terms()) {
      add(FeatureFamily::Syntactic, "bi:" + term);
    }
  }
}

namespace {

/// The projection step shared by transform() and transformUncached():
/// record -> feature vector, using only the extractor's public schema
/// accessors. Where the record came from (memo or fresh) cannot change a
/// single bit of the output.
std::vector<double> project(const FeatureExtractor& ex,
                            const FeatureRecord& record) {
  const ExtractorConfig& config = ex.config();
  std::vector<double> vec;
  vec.reserve(ex.dimension());
  if (config.useLexical) {
    vec.insert(vec.end(), record.lexical.begin(), record.lexical.end());
    ex.identifierVocabulary().project(record.identifiers, vec);
  }
  if (config.useLayout) {
    vec.insert(vec.end(), record.layout.begin(), record.layout.end());
  }
  if (config.useSyntactic) {
    vec.insert(vec.end(), record.syntactic.begin(), record.syntactic.end());
    ex.bigramVocabulary().project(record.bigrams, vec);
  }
  return vec;
}

}  // namespace

std::vector<double> FeatureExtractor::transform(
    const std::string& source) const {
  return project(*this, *analyze(source));
}

std::vector<double> FeatureExtractor::transformUncached(
    const std::string& source) const {
  // Only measurement paths call this, as often as their timing needs, so
  // the counter is runtime-class and stays out of the stable digest.
  static obs::Counter uncached = obs::MetricsRegistry::global().counter(
      "features_uncached_transforms", obs::Stability::kRuntime);
  uncached.add();
  return project(*this, computeRecord(source));
}

std::vector<std::vector<double>> FeatureExtractor::transformAll(
    const std::vector<std::string>& sources) const {
  obs::Span phase("analysis", obs::kPhaseCategory);
  return runtime::parallelMap<std::vector<double>>(
      sources.size(), [&](std::size_t i) { return transform(sources[i]); },
      runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
}

AnalysisCacheStats analysisCacheStats() {
  return AnalysisCache::global().stats();
}

void clearAnalysisCache() { AnalysisCache::global().clear(); }

}  // namespace sca::features
