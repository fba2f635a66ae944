#include "features/extractor.hpp"

#include <algorithm>
#include <cctype>
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
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace sca::features {
namespace {

/// Everything the syntactic feature block needs, precomputed from the AST.
/// The analysis cache keeps this flat summary instead of the AST itself:
/// kind counts are aligned to the allStmt/ExprKindNames() tables.
struct SyntacticSummary {
  std::vector<std::uint64_t> stmtKindCounts;  // aligned to allStmtKindNames()
  std::uint64_t stmtTotal = 0;
  std::vector<std::uint64_t> exprKindCounts;  // aligned to allExprKindNames()
  std::uint64_t exprTotal = 0;
  std::uint64_t maxDepth = 0;
  double meanDepth = 0.0;
  std::uint64_t functionCount = 0;
  double paramSum = 0.0;
  std::uint64_t aliasCount = 0;
  bool usingNamespaceStd = false;
  std::uint64_t includeCount = 0;
  bool bitsHeader = false;
  std::vector<std::string> bigrams;  // ast::stmtKindBigrams(unit)
};

/// Everything transform() needs, computed once per source. The tokens stay
/// inside their TokenStream (views into its buffer), so a cached analysis
/// holds exactly one allocation for all token text.
struct Analyzed {
  lexer::TokenStream tokens;
  lexer::LayoutMetrics layout;
  SyntacticSummary syntax;
};

SyntacticSummary summarize(const ast::TranslationUnit& unit) {
  SyntacticSummary s;
  // One fused traversal for kind counts, depth stats and bigrams (it used
  // to be four std::function-driven walks over the same tree).
  ast::UnitScan scan = ast::scanUnit(unit);
  s.stmtKindCounts = std::move(scan.stmtKindCounts);
  s.stmtTotal = scan.stmtTotal;
  s.exprKindCounts = std::move(scan.exprKindCounts);
  s.exprTotal = scan.exprTotal;
  s.maxDepth = scan.depth.maxDepth;
  s.meanDepth = scan.depth.mean();
  s.functionCount = unit.functions.size();
  for (const ast::Function& fn : unit.functions) {
    s.paramSum += static_cast<double>(fn.params.size());
  }
  s.aliasCount = unit.aliases.size();
  s.usingNamespaceStd = unit.usingNamespaceStd;
  s.includeCount = unit.includes.size();
  s.bitsHeader = std::find(unit.includes.begin(), unit.includes.end(),
                           "bits/stdc++.h") != unit.includes.end();
  s.bigrams = std::move(scan.bigrams);
  return s;
}

/// Lex + layout + parse of one source, bypassing the memo.
Analyzed computeAnalysis(const std::string& source) {
  Analyzed a;
  a.tokens = lexer::tokenize(source);
  a.layout = lexer::computeLayoutMetrics(source);
  // Parse from the stream we already lexed — tokenizing twice per
  // analysis used to be the second-largest cost of an analysis.
  a.syntax = summarize(ast::parse(a.tokens).unit);
  return a;
}

/// Process-global content-keyed memo of analyses (see extractor.hpp).
/// Bounded: past kMaxEntries the cache is dropped wholesale rather than
/// evicted piecemeal — the working set of one bench run (a few thousand
/// samples) fits comfortably, so overflow only happens across unrelated
/// corpora where stale entries would never hit again anyway.
class AnalysisCache {
 public:
  static constexpr std::size_t kMaxEntries = 32768;

  std::shared_ptr<const Analyzed> get(const std::string& source) {
    analyzeCalls_.add();
    {
      std::shared_lock lock(mutex_);
      const auto it = entries_.find(source);
      if (it != entries_.end()) {
        hits_.add();
        return it->second;
      }
    }

    auto analyzed = std::make_shared<const Analyzed>(computeAnalysis(source));

    std::unique_lock lock(mutex_);
    misses_.add();
    if (entries_.size() >= kMaxEntries) entries_.clear();
    return entries_.try_emplace(source, std::move(analyzed)).first->second;
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
  std::unordered_map<std::string, std::shared_ptr<const Analyzed>> entries_;
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

std::shared_ptr<const Analyzed> analyze(const std::string& source) {
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
  // Views borrow from `tokens`, which outlives this function — sorting
  // views for the distinct count never copies a name.
  std::vector<std::string_view> seen;
  for (const lexer::Token& t : tokens) {
    if (!t.is(lexer::TokenKind::Identifier)) continue;
    const std::string_view name = t.text;
    seen.push_back(name);
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
  std::sort(seen.begin(), seen.end());
  c.distinct = static_cast<std::size_t>(
      std::unique(seen.begin(), seen.end()) - seen.begin());
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

/// identifierTerms over an existing token stream (skips re-tokenizing).
/// Splits each identifier with util::splitIdentifier's exact boundary rules
/// but appends the lowered words straight into the result, skipping the
/// intermediate per-identifier vector the util function returns.
std::vector<std::string> identifierTermsFromTokens(
    const lexer::TokenStream& tokens) {
  std::vector<std::string> terms;
  std::string word;
  auto flush = [&] {
    if (!word.empty()) {
      terms.push_back(word);
      word.clear();
    }
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
  return terms;
}

/// Allocation-free equivalent of
/// vocab.vectorize(identifierTermsFromTokens(tokens)): identifier words are
/// split into one reused buffer and looked up as views, never materialized
/// into a per-call std::vector<std::string>. The math matches
/// Vocabulary::vectorize exactly — +1.0 per in-vocabulary term, then an L1
/// normalization by the TOTAL term count (out-of-vocabulary included), with
/// an all-zeros vector for a termless stream.
std::vector<double> vectorizeIdentifierTerms(const Vocabulary& vocab,
                                             const lexer::TokenStream& tokens) {
  std::vector<double> vec(vocab.size(), 0.0);
  std::size_t termCount = 0;
  std::string word;
  auto flush = [&] {
    if (word.empty()) return;
    ++termCount;
    if (const auto idx = vocab.indexOf(word)) vec[*idx] += 1.0;
    word.clear();
  };
  // Word boundaries replicate util::splitIdentifier: '_' separators plus
  // camelCase transitions, where an acronym run only breaks before its
  // trailing lowercase ("HTTPServer" -> "http", "server"). `lastUpper`
  // carries the original case of word.back() since the buffer stores the
  // already-lowered character.
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
  if (termCount > 0) {
    const double norm = static_cast<double>(termCount);
    for (double& v : vec) v /= norm;
  }
  return vec;
}

}  // namespace

std::vector<std::string> identifierTerms(const std::string& source) {
  const lexer::TokenStream stream = lexer::tokenize(source);
  return identifierTermsFromTokens(stream);
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
  runtime::PhaseTimer timer("analysis");
  // Per-source docs come straight off the shared analysis cache, in
  // parallel; vocabulary fitting itself stays serial (term counting is
  // order-independent but cheap).
  struct Docs {
    std::vector<std::string> identifiers;
    std::vector<std::string> bigrams;
  };
  std::vector<Docs> docs = runtime::parallelMap<Docs>(
      sources.size(),
      [&](std::size_t i) {
        const std::shared_ptr<const Analyzed> a = analyze(sources[i]);
        return Docs{identifierTermsFromTokens(a->tokens),
                    a->syntax.bigrams};
      },
      runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});

  std::vector<std::vector<std::string>> identifierDocs;
  std::vector<std::vector<std::string>> bigramDocs;
  identifierDocs.reserve(sources.size());
  bigramDocs.reserve(sources.size());
  for (Docs& d : docs) {
    identifierDocs.push_back(std::move(d.identifiers));
    bigramDocs.push_back(std::move(d.bigrams));
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
/// analysis -> feature vector, using only the extractor's public schema
/// accessors. Where the analysis came from (memo or fresh) cannot change
/// a single bit of the output.
std::vector<double> projectAnalyzed(const FeatureExtractor& ex,
                                    const Analyzed& a) {
  const ExtractorConfig& config = ex.config();
  std::vector<double> vec;
  vec.reserve(ex.dimension());

  // Token tallies shared by the lexical block. Keyword columns tally into
  // a fixed array indexed by cppKeywordIndex (same order as cppKeywords(),
  // so the emitted columns are unchanged) — no string-keyed map on the
  // per-sample path.
  std::size_t tokenCount = 0;
  std::vector<std::size_t> keywordCounts(lexer::cppKeywordCount(), 0);
  std::size_t intLits = 0, floatLits = 0, stringLits = 0, charLits = 0;
  std::size_t preprocessor = 0;
  for (const lexer::Token& t : a.tokens) {
    if (t.is(lexer::TokenKind::EndOfFile)) continue;
    ++tokenCount;
    switch (t.kind) {
      case lexer::TokenKind::Keyword: {
        // Guard: a cache-restored stream could in principle mark a
        // non-keyword text as Keyword; out-of-table just doesn't count.
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

  if (config.useLexical) {
    for (const std::size_t count : keywordCounts) {
      vec.push_back(ratio(count, tokenCount));
    }
    const NamingCounts naming = countNaming(a.tokens);
    vec.push_back(naming.meanLength / 16.0);
    vec.push_back(naming.maxLength / 32.0);
    vec.push_back(ratio(naming.distinct, naming.total));
    const std::size_t classified = naming.snake + naming.camel +
                                   naming.pascal + naming.lower +
                                   naming.hungarian;
    vec.push_back(ratio(naming.snake, classified));
    vec.push_back(ratio(naming.camel, classified));
    vec.push_back(ratio(naming.pascal, classified));
    vec.push_back(ratio(naming.lower, classified));
    vec.push_back(ratio(naming.hungarian, classified));
    vec.push_back(ratio(intLits, tokenCount));
    vec.push_back(ratio(floatLits, tokenCount));
    vec.push_back(ratio(stringLits, tokenCount));
    vec.push_back(ratio(charLits, tokenCount));
    vec.push_back(ratio(preprocessor, a.layout.lineCount));
    for (const double v :
         vectorizeIdentifierTerms(ex.identifierVocabulary(), a.tokens)) {
      vec.push_back(v);
    }
  }

  if (config.useLayout) {
    const lexer::LayoutMetrics& m = a.layout;
    vec.push_back(std::log1p(static_cast<double>(m.lineCount)) / 6.0);
    vec.push_back(m.blankLineRatio());
    vec.push_back(m.commentCharRatio());
    vec.push_back(ratio(m.lineComments, m.lineCount));
    vec.push_back(ratio(m.blockComments, m.lineCount));
    vec.push_back(m.tabIndentRatio());
    vec.push_back(m.meanIndentWidth / 16.0);
    vec.push_back(ratio(m.indentWidth2, m.indentedLines));
    vec.push_back(ratio(m.indentWidth4, m.indentedLines));
    vec.push_back(ratio(m.indentWidth8, m.indentedLines));
    vec.push_back(m.allmanBraceRatio());
    vec.push_back(m.spacedOpRatio());
    vec.push_back(m.spaceAfterCommaRatio());
    vec.push_back(m.spaceAfterKeywordRatio());
    vec.push_back(m.meanLineLength / 80.0);
    vec.push_back(static_cast<double>(m.maxLineLength) / 200.0);
  }

  if (config.useSyntactic) {
    const SyntacticSummary& s = a.syntax;
    for (const std::uint64_t count : s.stmtKindCounts) {
      vec.push_back(ratio(count, s.stmtTotal));
    }
    for (const std::uint64_t count : s.exprKindCounts) {
      vec.push_back(ratio(count, s.exprTotal));
    }
    vec.push_back(static_cast<double>(s.maxDepth) / 10.0);
    vec.push_back(s.meanDepth / 5.0);
    vec.push_back(static_cast<double>(s.functionCount) / 5.0);
    vec.push_back(s.functionCount == 0
                      ? 0.0
                      : static_cast<double>(s.stmtTotal) /
                            (30.0 * static_cast<double>(s.functionCount)));
    vec.push_back(s.functionCount == 0
                      ? 0.0
                      : s.paramSum / static_cast<double>(s.functionCount) /
                            4.0);
    vec.push_back(static_cast<double>(s.aliasCount));
    vec.push_back(s.usingNamespaceStd ? 1.0 : 0.0);
    vec.push_back(static_cast<double>(s.includeCount) / 6.0);
    vec.push_back(s.bitsHeader ? 1.0 : 0.0);
    for (const double v : ex.bigramVocabulary().vectorize(s.bigrams)) {
      vec.push_back(v);
    }
  }

  return vec;
}

}  // namespace

std::vector<double> FeatureExtractor::transform(
    const std::string& source) const {
  return projectAnalyzed(*this, *analyze(source));
}

std::vector<double> FeatureExtractor::transformUncached(
    const std::string& source) const {
  // How many samples run uncached depends on resume history (a resumed
  // corpus build re-renders only missing shards), so the counter is
  // runtime-class — it must not perturb stable digests across resumes.
  static obs::Counter uncached = obs::MetricsRegistry::global().counter(
      "features_uncached_transforms", obs::Stability::kRuntime);
  uncached.add();
  return projectAnalyzed(*this, computeAnalysis(source));
}

std::vector<std::vector<double>> FeatureExtractor::transformAll(
    const std::vector<std::string>& sources) const {
  runtime::PhaseTimer timer("analysis");
  return runtime::parallelMap<std::vector<double>>(
      sources.size(), [&](std::size_t i) { return transform(sources[i]); },
      runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
}

AnalysisCacheStats analysisCacheStats() {
  return AnalysisCache::global().stats();
}

void clearAnalysisCache() { AnalysisCache::global().clear(); }

}  // namespace sca::features
