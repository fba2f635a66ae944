#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "features/vocabulary.hpp"

namespace sca::features {
namespace {

const std::string kSampleA =
    "#include <iostream>\nusing namespace std;\n"
    "int main() {\n    int numCases;\n    cin >> numCases;\n"
    "    for (int i = 0; i < numCases; i++) {\n"
    "        cout << i << \"\\n\";\n    }\n    return 0;\n}\n";

const std::string kSampleB =
    "#include <cstdio>\nint main()\n{\n\tint num_cases;\n"
    "\tscanf(\"%d\", &num_cases);\n\tint i = 0;\n"
    "\twhile (i < num_cases)\n\t{\n\t\tprintf(\"%d\\n\", i);\n\t\ti++;\n"
    "\t}\n\treturn 0;\n}\n";

// ------------------------------------------------------------ vocabulary --

TEST(Vocabulary, TopTermsByDocumentFrequency) {
  const std::vector<std::vector<std::string>> docs = {
      {"num", "cases", "num"}, {"num", "time"}, {"time", "cases"}};
  const Vocabulary vocab = Vocabulary::fit(docs, 2);
  EXPECT_EQ(vocab.size(), 2u);
  // "cases" and "num" tie with "time" at 2 docs each; alphabetic tiebreak
  // keeps fitting deterministic.
  EXPECT_TRUE(vocab.indexOf("cases").has_value());
  EXPECT_TRUE(vocab.indexOf("num").has_value());
  EXPECT_FALSE(vocab.indexOf("time").has_value());
}

TEST(Vocabulary, VectorizeIsL1NormalizedTermFrequency) {
  const std::vector<std::vector<std::string>> docs = {{"a"}, {"b"}};
  const Vocabulary vocab = Vocabulary::fit(docs, 10);
  const auto vec = vocab.vectorize({"a", "a", "b", "zzz"});
  double sum = 0.0;
  for (const double v : vec) sum += v;
  EXPECT_NEAR(sum, 0.75, 1e-9);  // zzz out of vocabulary
  EXPECT_NEAR(vec[*vocab.indexOf("a")], 0.5, 1e-9);
}

TEST(Vocabulary, EmptyDocumentYieldsZeros) {
  const Vocabulary vocab = Vocabulary::fit({{"x"}}, 4);
  for (const double v : vocab.vectorize({})) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Vocabulary, TermBagCountsDistinctTerms) {
  TermBag bag;
  for (int i = 0; i < 300; ++i) bag.add("t" + std::to_string(i % 100));
  EXPECT_EQ(bag.distinct(), 100u);
  EXPECT_EQ(bag.total(), 300u);
  EXPECT_EQ(bag.term(0), "t0");  // first-occurrence order
  bag.shrinkToFit();
  bag.add("t7");  // counting resumes after the index is dropped
  bag.add("new");
  ASSERT_EQ(bag.distinct(), 101u);
  EXPECT_EQ(bag.total(), 302u);
  for (std::size_t i = 0; i < bag.distinct(); ++i) {
    const std::size_t expected =
        bag.term(i) == "t7" ? 4 : (bag.term(i) == "new" ? 1 : 3);
    EXPECT_EQ(bag.count(i), expected) << bag.term(i);
  }
}

TEST(IdentifierTerms, SplitsTokensIntoWords) {
  const auto terms = identifierTerms("int numTestCases = maxTime;");
  EXPECT_NE(std::find(terms.begin(), terms.end(), "num"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "cases"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "max"), terms.end());
}

// ------------------------------------------------------------- extractor --

TEST(Extractor, DimensionMatchesNamesAndFamilies) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  EXPECT_GT(ex.dimension(), 80u);
  EXPECT_EQ(ex.featureNames().size(), ex.dimension());
  EXPECT_EQ(ex.featureFamilies().size(), ex.dimension());
  const auto vec = ex.transform(kSampleA);
  EXPECT_EQ(vec.size(), ex.dimension());
}

TEST(Extractor, ValuesAreFiniteAndMostlyBounded) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  for (const std::string& src : {kSampleA, kSampleB}) {
    for (const double v : ex.transform(src)) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 16.0);
    }
  }
}

TEST(Extractor, DistinguishesLayoutStyles) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  const auto a = ex.transform(kSampleA);
  const auto b = ex.transform(kSampleB);
  double distance = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    distance += std::fabs(a[i] - b[i]);
  }
  EXPECT_GT(distance, 0.5);
}

TEST(Extractor, TransformIsDeterministic) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  EXPECT_EQ(ex.transform(kSampleA), ex.transform(kSampleA));
}

TEST(Extractor, FamilySwitchesControlSchema) {
  ExtractorConfig lexOnly;
  lexOnly.useLayout = false;
  lexOnly.useSyntactic = false;
  FeatureExtractor ex(lexOnly);
  ex.fit({kSampleA});
  for (const FeatureFamily family : ex.featureFamilies()) {
    EXPECT_EQ(family, FeatureFamily::Lexical);
  }
  ExtractorConfig layoutOnly;
  layoutOnly.useLexical = false;
  layoutOnly.useSyntactic = false;
  FeatureExtractor ex2(layoutOnly);
  ex2.fit({kSampleA});
  EXPECT_EQ(ex2.featureFamilies().size(), 16u);
}

TEST(Extractor, KeywordColumnsReflectUsage) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  const auto& names = ex.featureNames();
  const auto a = ex.transform(kSampleA);
  const auto b = ex.transform(kSampleB);
  const auto col = [&](const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << name;
    return static_cast<std::size_t>(it - names.begin());
  };
  EXPECT_GT(a[col("kw:for")], 0.0);
  EXPECT_DOUBLE_EQ(b[col("kw:for")], 0.0);
  EXPECT_GT(b[col("kw:while")], 0.0);
  EXPECT_GT(b[col("lay:tab-indent-ratio")], 0.9);
  EXPECT_DOUBLE_EQ(a[col("lay:tab-indent-ratio")], 0.0);
  EXPECT_GT(b[col("lay:allman-ratio")], 0.5);
}

TEST(Extractor, HandlesGarbageInput) {
  FeatureExtractor ex;
  ex.fit({kSampleA});
  const auto vec = ex.transform("not really c++ @@@ ;;");
  EXPECT_EQ(vec.size(), ex.dimension());
  for (const double v : vec) EXPECT_TRUE(std::isfinite(v));
}

TEST(Extractor, EmptyInputSafe) {
  FeatureExtractor ex;
  ex.fit({kSampleA});
  const auto vec = ex.transform("");
  EXPECT_EQ(vec.size(), ex.dimension());
}

// -------------------------------------------------------------- selection --

TEST(Selection, PicksTheInformativeFeature) {
  // Feature 0 separates classes perfectly, feature 1 is constant,
  // feature 2 is noise-ish.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    x.push_back({label == 0 ? 0.0 : 1.0, 5.0, (i % 3) * 0.1});
    y.push_back(label);
  }
  FeatureSelector sel;
  sel.fit(x, y, 1);
  ASSERT_EQ(sel.selected().size(), 1u);
  EXPECT_EQ(sel.selected()[0], 0u);
  EXPECT_GT(sel.gains()[0], sel.gains()[2]);
  EXPECT_DOUBLE_EQ(sel.gains()[1], 0.0);

  // Fails closed: one label short, then a row narrower than row 0.
  const std::vector<int> shortY(y.begin(), y.end() - 1);
  EXPECT_THROW(sel.fit(x, shortY, 1), std::invalid_argument);
  x[7].pop_back();
  EXPECT_THROW(sel.fit(x, y, 1), std::invalid_argument);
}

TEST(Selection, IdentityWhenKCoversAll) {
  std::vector<std::vector<double>> x = {{1, 2}, {3, 4}};
  std::vector<int> y = {0, 1};
  FeatureSelector sel;
  sel.fit(x, y, 10);
  EXPECT_TRUE(sel.identity());
  EXPECT_EQ(sel.apply({7, 8}), (std::vector<double>{7, 8}));
  // The shape checks run before the identity shortcut.
  EXPECT_THROW(sel.fit(x, {0}, 10), std::invalid_argument);
  EXPECT_THROW(sel.fit({{1, 2}, {3}}, y, 10), std::invalid_argument);
}

TEST(Selection, ApplyProjectsInGainOrder) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 20; ++i) {
    const int label = i % 2;
    // feature 1 is perfect, feature 0 constant.
    x.push_back({1.0, label == 0 ? 0.0 : 1.0, 0.5});
    y.push_back(label);
  }
  FeatureSelector sel;
  sel.fit(x, y, 2);
  ASSERT_EQ(sel.selected().size(), 2u);
  EXPECT_EQ(sel.selected()[0], 1u);
  const auto projected = sel.apply({10, 20, 30});
  EXPECT_EQ(projected[0], 20);
  // Selected columns are {1, 0}: two columns suffice, one does not.
  EXPECT_EQ(sel.apply({10, 20}), (std::vector<double>{20, 10}));
  EXPECT_THROW((void)sel.apply({10}), std::invalid_argument);
  EXPECT_THROW((void)sel.applyAll({{10, 20}, {}}), std::invalid_argument);
}

TEST(Vocabulary, FromTermsRoundTrip) {
  const Vocabulary built = Vocabulary::fromTerms({"beta", "alpha", "gamma"});
  EXPECT_EQ(built.size(), 3u);
  EXPECT_EQ(*built.indexOf("beta"), 0u);
  EXPECT_EQ(*built.indexOf("gamma"), 2u);
  EXPECT_FALSE(built.indexOf("delta").has_value());
  // vectorize honours the explicit ordering
  const auto vec = built.vectorize({"gamma", "gamma"});
  EXPECT_DOUBLE_EQ(vec[2], 1.0);
}

TEST(Extractor, RebuiltFromVocabulariesMatchesOriginal) {
  FeatureExtractor fitted;
  fitted.fit({kSampleA, kSampleB});
  FeatureExtractor rebuilt(fitted.config(), fitted.identifierVocabulary(),
                           fitted.bigramVocabulary());
  EXPECT_EQ(rebuilt.dimension(), fitted.dimension());
  EXPECT_EQ(rebuilt.transform(kSampleA), fitted.transform(kSampleA));
  EXPECT_EQ(rebuilt.transform(kSampleB), fitted.transform(kSampleB));
}

TEST(Selection, FromIndicesProjects) {
  const FeatureSelector sel = FeatureSelector::fromIndices({2, 0});
  EXPECT_FALSE(sel.identity());
  EXPECT_EQ(sel.apply({10, 20, 30}), (std::vector<double>{30, 10}));
  EXPECT_THROW((void)sel.apply({10, 20}), std::invalid_argument);
}

TEST(Selection, LabelEntropy) {
  EXPECT_DOUBLE_EQ(labelEntropy({1, 1, 1}), 0.0);
  EXPECT_NEAR(labelEntropy({0, 1}), std::log(2.0), 1e-9);
}

// -------------------------------------------------------- analysis cache --

TEST(AnalysisCache, CountsHitsMissesAndEntries) {
  clearAnalysisCache();
  const AnalysisCacheStats empty = analysisCacheStats();
  EXPECT_EQ(empty.hits, 0u);
  EXPECT_EQ(empty.misses, 0u);
  EXPECT_EQ(empty.entries, 0u);

  FeatureExtractor extractor;
  extractor.fit({kSampleA});  // first analysis of kSampleA: one miss
  const AnalysisCacheStats afterFit = analysisCacheStats();
  EXPECT_EQ(afterFit.misses, 1u);
  EXPECT_EQ(afterFit.entries, 1u);

  (void)extractor.transform(kSampleA);  // same content: a hit, no new entry
  const AnalysisCacheStats afterHit = analysisCacheStats();
  EXPECT_EQ(afterHit.hits, afterFit.hits + 1);
  EXPECT_EQ(afterHit.misses, 1u);
  EXPECT_EQ(afterHit.entries, 1u);

  (void)extractor.transform(kSampleB);  // new content: a miss, new entry
  const AnalysisCacheStats afterMiss = analysisCacheStats();
  EXPECT_EQ(afterMiss.misses, 2u);
  EXPECT_EQ(afterMiss.entries, 2u);

  clearAnalysisCache();
  const AnalysisCacheStats cleared = analysisCacheStats();
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.misses, 0u);
  EXPECT_EQ(cleared.entries, 0u);
}

TEST(AnalysisCache, WarmCacheIsTransparent) {
  FeatureExtractor extractor;
  extractor.fit({kSampleA, kSampleB});
  clearAnalysisCache();
  const std::vector<double> cold = extractor.transform(kSampleA);
  const std::vector<double> warm = extractor.transform(kSampleA);
  EXPECT_EQ(cold, warm);
  // A second extractor with different vocabularies shares the cache yet
  // projects its own features — cached analyses are extractor-independent.
  ExtractorConfig narrow;
  narrow.identifierVocabulary = 5;
  narrow.bigramVocabulary = 3;
  FeatureExtractor other(narrow);
  other.fit({kSampleB});
  EXPECT_EQ(other.transform(kSampleA), other.transform(kSampleA));
  EXPECT_NE(other.dimension(), extractor.dimension());
}

}  // namespace
}  // namespace sca::features
