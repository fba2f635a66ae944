#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lexer/lexer.hpp"

namespace sca::lexer {
namespace {

TokenStream lex(std::string_view src) { return tokenize(src); }

TEST(Lexer, EmptyInputYieldsEof) {
  const auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].is(TokenKind::EndOfFile));
}

TEST(Lexer, KeywordsVsIdentifiers) {
  const auto tokens = lex("int foo while whilex");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_TRUE(tokens[0].isKeyword("int"));
  EXPECT_TRUE(tokens[1].is(TokenKind::Identifier));
  EXPECT_TRUE(tokens[2].isKeyword("while"));
  EXPECT_TRUE(tokens[3].is(TokenKind::Identifier));
  EXPECT_EQ(tokens[3].text, "whilex");
}

TEST(Lexer, IntAndFloatLiterals) {
  const auto tokens = lex("42 0x1F 3.14 1e9 2.5e-3 100LL 1.0f");
  EXPECT_TRUE(tokens[0].is(TokenKind::IntLiteral));
  EXPECT_TRUE(tokens[1].is(TokenKind::IntLiteral));
  EXPECT_TRUE(tokens[2].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(tokens[3].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(tokens[4].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(tokens[5].is(TokenKind::IntLiteral));
  EXPECT_EQ(tokens[5].text, "100LL");
  EXPECT_TRUE(tokens[6].is(TokenKind::FloatLiteral));
}

TEST(Lexer, StringAndCharLiteralsKeepSpelling) {
  const auto tokens = lex(R"("a\"b" '\n' 'x')");
  EXPECT_TRUE(tokens[0].is(TokenKind::StringLiteral));
  EXPECT_EQ(tokens[0].text, R"("a\"b")");
  EXPECT_TRUE(tokens[1].is(TokenKind::CharLiteral));
  EXPECT_EQ(tokens[1].text, R"('\n')");
  EXPECT_EQ(tokens[2].text, "'x'");
}

TEST(Lexer, UnterminatedStringToleratedAtLineEnd) {
  const auto tokens = lex("\"oops\nint x;");
  EXPECT_TRUE(tokens[0].is(TokenKind::StringLiteral));
  // lexing continues on the next line
  EXPECT_TRUE(tokens[1].isKeyword("int"));
}

TEST(Lexer, LineAndBlockComments) {
  const auto tokens = lex("x // note\n/* multi\nline */ y");
  EXPECT_TRUE(tokens[0].is(TokenKind::Identifier));
  EXPECT_TRUE(tokens[1].is(TokenKind::LineComment));
  EXPECT_EQ(tokens[1].text, " note");
  EXPECT_TRUE(tokens[2].is(TokenKind::BlockComment));
  EXPECT_EQ(tokens[2].text, " multi\nline ");
  EXPECT_EQ(tokens[3].text, "y");
}

TEST(Lexer, UnterminatedBlockCommentRunsToEof) {
  const auto tokens = lex("/* open");
  EXPECT_TRUE(tokens[0].is(TokenKind::BlockComment));
  EXPECT_TRUE(tokens[1].is(TokenKind::EndOfFile));
}

TEST(Lexer, MultiCharPunctuatorsLongestMatch) {
  const auto tokens = lex("a<<=b >>= ++ -- <= >= == != && || -> :: <<");
  EXPECT_EQ(tokens[1].text, "<<=");
  EXPECT_EQ(tokens[3].text, ">>=");
  EXPECT_EQ(tokens[4].text, "++");
  EXPECT_EQ(tokens[5].text, "--");
  EXPECT_EQ(tokens[6].text, "<=");
  EXPECT_EQ(tokens[7].text, ">=");
  EXPECT_EQ(tokens[8].text, "==");
  EXPECT_EQ(tokens[9].text, "!=");
  EXPECT_EQ(tokens[10].text, "&&");
  EXPECT_EQ(tokens[11].text, "||");
  EXPECT_EQ(tokens[12].text, "->");
  EXPECT_EQ(tokens[13].text, "::");
  EXPECT_EQ(tokens[14].text, "<<");
}

TEST(Lexer, PreprocessorTakesWholeLine) {
  const auto tokens = lex("#include <iostream>\nint x;");
  EXPECT_TRUE(tokens[0].is(TokenKind::Preprocessor));
  EXPECT_EQ(tokens[0].text, "#include <iostream>");
  EXPECT_TRUE(tokens[1].isKeyword("int"));
}

TEST(Lexer, PreprocessorLineContinuation) {
  const auto tokens = lex("#define X \\\n 5\nint y;");
  EXPECT_TRUE(tokens[0].is(TokenKind::Preprocessor));
  EXPECT_TRUE(tokens[1].isKeyword("int"));
}

TEST(Lexer, LineAndColumnTracking) {
  const auto tokens = lex("a\n  b");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[0].column, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 3u);
}

TEST(Lexer, UnknownBytesBecomePunctuators) {
  const auto tokens = lex("a @ b");
  EXPECT_TRUE(tokens[1].is(TokenKind::Punctuator));
  EXPECT_EQ(tokens[1].text, "@");
}

TEST(Lexer, WithoutTriviaDropsComments) {
  const auto tokens = lex("x // c\n/* d */ y");
  const std::vector<std::uint32_t> clean = withoutTrivia(tokens);
  ASSERT_EQ(clean.size(), 3u);  // x, y, eof
  EXPECT_EQ(tokens[clean[0]].text, "x");
  EXPECT_EQ(tokens[clean[1]].text, "y");
}

TEST(Lexer, TokenTextViewsPointIntoStreamSource) {
  const auto stream =
      lex("int main() {\n  // add\n  int x = 1 + 2; /* y */\n  return x;\n}\n");
  const std::string_view src = stream.source();
  for (const Token& t : stream) {
    if (t.is(TokenKind::EndOfFile)) {
      EXPECT_EQ(t.offset, src.size());
      continue;
    }
    // Zero-copy invariant: every token text is a view into the stream's own
    // source buffer, and offset locates that view.
    EXPECT_GE(t.text.data(), src.data());
    EXPECT_LE(t.text.data() + t.text.size(), src.data() + src.size());
    ASSERT_LE(std::size_t{t.offset} + t.text.size(), src.size());
    EXPECT_EQ(src.substr(t.offset, t.text.size()), t.text);
  }
}

TEST(Lexer, OffsetLineColumnConsistent) {
  const std::string source =
      "int a = 1;\n  // note\nwhile (a) { /* dec */ a--; }\n";
  const auto stream = lex(source);
  const std::string_view src = stream.source();
  for (const Token& t : stream) {
    if (t.is(TokenKind::EndOfFile)) continue;
    // Recompute line/column from the recorded offset and compare. Comment
    // offsets point at the interior (after the two delimiter chars), while
    // line/column point at the delimiter itself.
    std::uint32_t line = 1;
    std::uint32_t column = 1;
    for (std::uint32_t i = 0; i < t.offset; ++i) {
      if (src[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    const bool comment =
        t.is(TokenKind::LineComment) || t.is(TokenKind::BlockComment);
    EXPECT_EQ(t.line, line) << "token '" << std::string(t.text) << "'";
    EXPECT_EQ(t.column, comment ? column - 2 : column)
        << "token '" << std::string(t.text) << "'";
  }
}

TEST(Lexer, ViewsSurviveStreamMove) {
  TokenStream stream = lex("alpha beta");
  const char* alphaData = stream[0].text.data();
  TokenStream moved = std::move(stream);
  EXPECT_EQ(moved[0].text.data(), alphaData);
  EXPECT_EQ(moved[0].text, "alpha");
  EXPECT_EQ(moved[1].text, "beta");
}

TEST(Lexer, DotBeforeDigitsIsFloat) {
  const auto tokens = lex(".5 a.b");
  EXPECT_TRUE(tokens[0].is(TokenKind::FloatLiteral));
  EXPECT_EQ(tokens[0].text, ".5");
  // but member access stays punctuation
  EXPECT_EQ(tokens[2].text, ".");
}

}  // namespace
}  // namespace sca::lexer
