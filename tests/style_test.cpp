#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ast/parser.hpp"
#include "ast/render.hpp"
#include "lexer/token.hpp"
#include "corpus/challenges.hpp"
#include "style/apply.hpp"
#include "style/infer.hpp"
#include "style/naming.hpp"
#include "style/profile.hpp"

namespace sca::style {
namespace {

StyleProfile defaultProfile() { return StyleProfile{}; }

TEST(Profile, RenderOptionsMirrorLayoutDims) {
  StyleProfile p;
  p.indentWidth = 2;
  p.useTabs = true;
  p.allmanBraces = true;
  p.ioStyle = ast::IoStyle::Stdio;
  p.useEndl = true;
  const ast::RenderOptions opt = p.renderOptions();
  EXPECT_EQ(opt.indentWidth, 2);
  EXPECT_TRUE(opt.useTabs);
  EXPECT_TRUE(opt.allmanBraces);
  EXPECT_EQ(opt.ioStyle, ast::IoStyle::Stdio);
  EXPECT_TRUE(opt.useEndl);
}

TEST(Profile, DistanceZeroForIdentical) {
  EXPECT_DOUBLE_EQ(StyleProfile::distance(defaultProfile(), defaultProfile()),
                   0.0);
}

TEST(Profile, DistanceGrowsWithDifferences) {
  StyleProfile a;
  StyleProfile b;
  b.naming = NamingConvention::SnakeCase;
  const double one = StyleProfile::distance(a, b);
  b.allmanBraces = !b.allmanBraces;
  b.ioStyle = ast::IoStyle::Stdio;
  const double three = StyleProfile::distance(a, b);
  EXPECT_GT(one, 0.0);
  EXPECT_GT(three, one);
  EXPECT_LE(three, 1.0);
}

TEST(Profile, SampleIsDeterministicPerSeed) {
  util::Rng r1(99), r2(99);
  const StyleProfile a = sampleProfile(r1);
  const StyleProfile b = sampleProfile(r2);
  EXPECT_DOUBLE_EQ(StyleProfile::distance(a, b), 0.0);
}

TEST(Profile, SampleProducesVariety) {
  util::Rng rng(7);
  std::set<std::string> described;
  for (int i = 0; i < 60; ++i) {
    util::Rng sub = rng.derive(static_cast<std::uint64_t>(i));
    described.insert(sampleProfile(sub).describe());
  }
  EXPECT_GT(described.size(), 30u);
}

TEST(Profile, SampleKeepsInternalConsistency) {
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    util::Rng sub = rng.derive(static_cast<std::uint64_t>(i));
    const StyleProfile p = sampleProfile(sub);
    if (p.naming == NamingConvention::HungarianLite) {
      EXPECT_NE(p.verbosity, Verbosity::Short);
    }
    if (p.useBitsHeader) {
      EXPECT_EQ(p.ioStyle, ast::IoStyle::Iostream);
    }
    if (p.aliasLongLong) {
      EXPECT_TRUE(p.widenToLongLong);
    }
  }
}

// ---------------------------------------------------------------- naming --

TEST(Naming, ApplyConventionAllForms) {
  const std::vector<std::string> words = {"num", "test", "cases"};
  const ast::TypeRef intType{ast::BaseType::Int, false};
  EXPECT_EQ(applyConvention(words, NamingConvention::CamelCase, intType),
            "numTestCases");
  EXPECT_EQ(applyConvention(words, NamingConvention::SnakeCase, intType),
            "num_test_cases");
  EXPECT_EQ(applyConvention(words, NamingConvention::PascalCase, intType),
            "NumTestCases");
  EXPECT_EQ(applyConvention(words, NamingConvention::HungarianLite, intType),
            "nNumTestCases");
}

TEST(Naming, HungarianPrefixTracksType) {
  const std::vector<std::string> words = {"time"};
  EXPECT_EQ(applyConvention(words, NamingConvention::HungarianLite,
                            ast::TypeRef{ast::BaseType::Double, false}),
            "dTime");
  EXPECT_EQ(applyConvention(words, NamingConvention::HungarianLite,
                            ast::TypeRef{ast::BaseType::String, false}),
            "sTime");
  EXPECT_EQ(applyConvention(words, NamingConvention::HungarianLite,
                            ast::TypeRef{ast::BaseType::Int, true}),
            "vTime");
}

TEST(Naming, ShortenAndExpandInverseish) {
  EXPECT_EQ(shortenWord("number"), "num");
  EXPECT_EQ(expandWord("cnt"), "count");
  EXPECT_EQ(shortenWord("zebra"), "zebra");  // unknown short word unchanged
  EXPECT_EQ(shortenWord("elephant"), "ele"); // unknown long word prefixed
}

TEST(Naming, RestyleKeepsLoopCounters) {
  util::Rng rng(3);
  StyleProfile p;
  p.naming = NamingConvention::SnakeCase;
  EXPECT_EQ(restyleIdentifier("i", p, {ast::BaseType::Int, false}, rng), "i");
  EXPECT_EQ(restyleIdentifier("j", p, {ast::BaseType::Int, false}, rng), "j");
}

TEST(Naming, RestyleNeverEmitsKeyword) {
  util::Rng rng(5);
  StyleProfile p;
  p.naming = NamingConvention::Abbreviated;
  p.verbosity = Verbosity::Short;
  // "integer" shortens aggressively; result must not be a C++ keyword.
  for (const char* name : {"integer", "int_value", "forCount", "doStep"}) {
    const std::string out =
        restyleIdentifier(name, p, {ast::BaseType::Int, false}, rng);
    EXPECT_FALSE(lexer::isCppKeyword(out)) << out;
    EXPECT_FALSE(out.empty());
  }
}

TEST(Naming, RenameMapIsCollisionFree) {
  const auto& challenge = corpus::challengeById("race");
  util::Rng rng(17);
  StyleProfile p;
  p.naming = NamingConvention::Abbreviated;  // aggressive compression
  p.verbosity = Verbosity::Short;
  const auto renames = renameMapFor(challenge.ir, p, rng);
  std::set<std::string> produced;
  for (const auto& [from, to] : renames) {
    EXPECT_TRUE(produced.insert(to).second) << "duplicate target " << to;
    EXPECT_NE(to, "main");
  }
}

TEST(Naming, HabitualSynonymIsDeterministicPerSeed) {
  const std::string a = habitualSynonymFor("num", 42);
  const std::string b = habitualSynonymFor("num", 42);
  EXPECT_EQ(a, b);
  // Across many seeds the habit varies (it is a choice, not the identity).
  std::set<std::string> choices;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    choices.insert(habitualSynonymFor("num", seed));
  }
  EXPECT_GT(choices.size(), 1u);
}

TEST(Naming, NamingSeedMakesVocabularyPersistent) {
  // The same author must use the same synonym for the same concept across
  // different programs (different rng states).
  StyleProfile p;
  p.naming = NamingConvention::SnakeCase;
  p.namingSeed = 777;
  util::Rng rng1(1), rng2(2);
  const std::string first =
      restyleIdentifier("num_cases", p, {ast::BaseType::Int, false}, rng1);
  const std::string second =
      restyleIdentifier("num_cases", p, {ast::BaseType::Int, false}, rng2);
  EXPECT_EQ(first, second);
}

TEST(Naming, SynonymStaysInGroup) {
  util::Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const std::string synonym = synonymFor("num", rng);
    bool found = false;
    for (const auto& group : synonymGroups()) {
      if (std::find(group.begin(), group.end(), synonym) != group.end() &&
          std::find(group.begin(), group.end(), "num") != group.end()) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << synonym;
  }
}

// ----------------------------------------------------------------- apply --

TEST(Apply, StyleUnitDoesNotMutateInput) {
  const auto& challenge = corpus::challengeById("race");
  const std::string before = ast::render(challenge.ir, ast::RenderOptions{});
  util::Rng rng(31);
  StyleProfile p;
  p.naming = NamingConvention::PascalCase;
  (void)styleUnit(challenge.ir, p, rng);
  const std::string after = ast::render(challenge.ir, ast::RenderOptions{});
  EXPECT_EQ(before, after);
}

TEST(Apply, AppliedSourceParsesCleanly) {
  const auto& challenge = corpus::challengeById("tidy");
  util::Rng outer(37);
  for (int i = 0; i < 25; ++i) {
    util::Rng profileRng = outer.derive(static_cast<std::uint64_t>(i));
    const StyleProfile p = sampleProfile(profileRng);
    util::Rng applyRng = outer.derive(1000 + static_cast<std::uint64_t>(i));
    const std::string source = applyStyle(challenge.ir, p, applyRng);
    const ast::ParseResult r = ast::parse(source);
    EXPECT_TRUE(r.clean) << p.describe() << "\n" << source;
  }
}

TEST(Apply, ExtractSolveChangesFunctionCount) {
  const auto& challenge = corpus::challengeById("race");
  StyleProfile p;
  p.extractSolve = true;
  util::Rng rng(41);
  const ast::TranslationUnit styled = styleUnit(challenge.ir, p, rng);
  EXPECT_EQ(styled.functions.size(), 2u);
  StyleProfile q;
  q.extractSolve = false;
  util::Rng rng2(41);
  const ast::TranslationUnit flat = styleUnit(challenge.ir, q, rng2);
  EXPECT_EQ(flat.functions.size(), 1u);
}

TEST(Apply, CommentDensityProducesComments) {
  const auto& challenge = corpus::challengeById("pace");
  StyleProfile p;
  p.commentDensity = 0.9;
  util::Rng rng(43);
  const std::string source = applyStyle(challenge.ir, p, rng);
  EXPECT_NE(source.find("//"), std::string::npos);
}

// ----------------------------------------------------------------- infer --

TEST(Infer, RecoversCoreDimensions) {
  const auto& challenge = corpus::challengeById("race");
  StyleProfile p;
  p.naming = NamingConvention::SnakeCase;
  p.indentWidth = 2;
  p.allmanBraces = true;
  p.ioStyle = ast::IoStyle::Stdio;
  p.extractSolve = true;
  util::Rng rng(47);
  const std::string source = applyStyle(challenge.ir, p, rng);
  const StyleProfile inferred = inferProfileFromSource(source);
  EXPECT_EQ(inferred.naming, NamingConvention::SnakeCase);
  EXPECT_EQ(inferred.indentWidth, 2);
  EXPECT_TRUE(inferred.allmanBraces);
  EXPECT_EQ(inferred.ioStyle, ast::IoStyle::Stdio);
  EXPECT_TRUE(inferred.extractSolve);
}

TEST(Infer, RoundTripDistanceSmallerThanRandomPair) {
  const auto& challenge = corpus::challengeById("budget");
  util::Rng rng(53);
  double roundTrip = 0.0, crossPair = 0.0;
  const int trials = 12;
  for (int i = 0; i < trials; ++i) {
    util::Rng pr = rng.derive(static_cast<std::uint64_t>(i));
    const StyleProfile a = sampleProfile(pr);
    util::Rng pr2 = rng.derive(1000 + static_cast<std::uint64_t>(i));
    const StyleProfile b = sampleProfile(pr2);
    util::Rng ar = rng.derive(2000 + static_cast<std::uint64_t>(i));
    const std::string source = applyStyle(challenge.ir, a, ar);
    const StyleProfile inferred = inferProfileFromSource(source);
    roundTrip += StyleProfile::distance(a, inferred);
    crossPair += StyleProfile::distance(a, b);
  }
  EXPECT_LT(roundTrip / trials, crossPair / trials);
}

TEST(Infer, MutateRateZeroIsIdentity) {
  util::Rng rng(59);
  const StyleProfile p = sampleProfile(rng);
  util::Rng mr(61);
  const StyleProfile m = mutateProfile(p, mr, 0.0);
  EXPECT_DOUBLE_EQ(StyleProfile::distance(p, m), 0.0);
}

TEST(Infer, MutateRateOneChangesMostDimensions) {
  util::Rng rng(67);
  const StyleProfile p = sampleProfile(rng);
  util::Rng mr(71);
  const StyleProfile m = mutateProfile(p, mr, 1.0);
  EXPECT_GT(StyleProfile::distance(p, m), 0.2);
}

}  // namespace
}  // namespace sca::style
