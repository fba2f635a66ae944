#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ast/parser.hpp"
#include "ast/render.hpp"
#include "ast/visit.hpp"
#include "corpus/dataset.hpp"
#include "lexer/layout.hpp"

namespace sca::corpus {
namespace {

TEST(Challenges, CatalogueHasTwentyDistinctProblems) {
  const auto& all = catalogue();
  EXPECT_EQ(all.size(), 20u);
  std::set<std::string> ids;
  for (const Challenge& ch : all) {
    EXPECT_FALSE(ch.id.empty());
    EXPECT_FALSE(ch.title.empty());
    EXPECT_GT(ch.statement.size(), 40u);
    ids.insert(ch.id);
  }
  EXPECT_EQ(ids.size(), all.size());
}

TEST(Challenges, EveryIrRendersAndParsesCleanly) {
  for (const Challenge& ch : catalogue()) {
    const std::string source = ast::render(ch.ir, ast::RenderOptions{});
    const ast::ParseResult r = ast::parse(source);
    EXPECT_TRUE(r.clean) << ch.id << ":\n" << source;
  }
}

TEST(Challenges, EveryIrHasMainAndCaseOutput) {
  for (const Challenge& ch : catalogue()) {
    bool hasMain = false;
    for (const auto& fn : ch.ir.functions) {
      if (fn.name == "main") hasMain = true;
    }
    EXPECT_TRUE(hasMain) << ch.id;
    const std::string source = ast::render(ch.ir, ast::RenderOptions{});
    EXPECT_NE(source.find("Case #"), std::string::npos) << ch.id;
  }
}

TEST(Challenges, IrsAreNontrivial) {
  for (const Challenge& ch : catalogue()) {
    EXPECT_GE(ast::countStmts(ch.ir), 8u) << ch.id;
    EXPECT_GE(ast::maxStmtDepth(ch.ir), 2u) << ch.id;
  }
}

TEST(Challenges, YearsDrawEightWithOverlap) {
  const auto y2017 = challengesForYear(2017);
  const auto y2018 = challengesForYear(2018);
  const auto y2019 = challengesForYear(2019);
  EXPECT_EQ(y2017.size(), 8u);
  EXPECT_EQ(y2018.size(), 8u);
  EXPECT_EQ(y2019.size(), 8u);
  std::set<const Challenge*> s2017(y2017.begin(), y2017.end());
  std::set<const Challenge*> s2018(y2018.begin(), y2018.end());
  EXPECT_NE(s2017, s2018);  // years differ
}

TEST(Challenges, LookupByIdAndFigure3) {
  EXPECT_EQ(challengeById("race").id, "race");
  // Discarded: the call throws before it returns a value.
  EXPECT_THROW((void)challengeById("nope"), std::out_of_range);
  EXPECT_EQ(figure3Challenge().id, "race");
}

TEST(Authors, PopulationDeterministicAndYearDependent) {
  const auto a1 = makeAuthorPopulation(2017, 20);
  const auto a2 = makeAuthorPopulation(2017, 20);
  const auto b = makeAuthorPopulation(2018, 20);
  ASSERT_EQ(a1.size(), 20u);
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        style::StyleProfile::distance(a1[i].profile, a2[i].profile), 0.0);
  }
  // Different year => (almost surely) different profiles somewhere.
  double totalDistance = 0.0;
  for (std::size_t i = 0; i < a1.size(); ++i) {
    totalDistance += style::StyleProfile::distance(a1[i].profile, b[i].profile);
  }
  EXPECT_GT(totalDistance, 0.5);
}

TEST(Authors, NamesFollowPaperConvention) {
  const auto authors = makeAuthorPopulation(2019, 3);
  EXPECT_EQ(authors[0].name, "A0");
  EXPECT_EQ(authors[2].name, "A2");
}

TEST(Dataset, ShapeMatchesTableOne) {
  // Scaled-down shape check: authors x challenges samples.
  const YearDataset ds = buildYearDataset(2017, 12);
  EXPECT_EQ(ds.authors.size(), 12u);
  EXPECT_EQ(ds.challenges.size(), 8u);
  EXPECT_EQ(ds.samples.size(), 96u);
}

TEST(Dataset, SamplesParseCleanAndCarryProvenance) {
  const YearDataset ds = buildYearDataset(2018, 6);
  for (const CodeSample& sample : ds.samples) {
    EXPECT_EQ(sample.origin, "human");
    EXPECT_GE(sample.authorId, 0);
    EXPECT_LT(sample.authorId, 6);
    EXPECT_TRUE(ast::parse(sample.source).clean);
  }
}

TEST(Dataset, RenderSolutionDeterministic) {
  const auto authors = makeAuthorPopulation(2017, 2);
  const auto& ch = challengeById("race");
  EXPECT_EQ(renderSolution(authors[0], ch, 2017, 0),
            renderSolution(authors[0], ch, 2017, 0));
  EXPECT_NE(renderSolution(authors[0], ch, 2017, 0),
            renderSolution(authors[1], ch, 2017, 0));
}

TEST(Dataset, AuthorStyleConsistentAcrossChallenges) {
  // The same author's solutions to different challenges share their layout
  // dimensions in aggregate (a small per-sample wobble is intentional —
  // real authors are not machines).
  const auto authors = makeAuthorPopulation(2019, 1);
  const auto challenges = challengesForYear(2019);
  const style::StyleProfile& p = authors[0].profile;
  std::size_t braceMatches = 0;
  std::size_t tabMatches = 0;
  for (std::size_t c = 0; c < challenges.size(); ++c) {
    const std::string src =
        renderSolution(authors[0], *challenges[c], 2019, static_cast<int>(c));
    const auto layout = lexer::computeLayoutMetrics(src);
    if ((layout.tabIndentRatio() > 0.5) == p.useTabs) ++tabMatches;
    if ((layout.allmanBraceRatio() > 0.5) == p.allmanBraces) ++braceMatches;
  }
  EXPECT_GE(tabMatches, challenges.size() - 2);
  EXPECT_GE(braceMatches, challenges.size() - 2);
}

}  // namespace
}  // namespace sca::corpus
