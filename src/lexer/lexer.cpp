#include "lexer/lexer.hpp"

#include <array>
#include <cstring>

namespace sca::lexer {
namespace {

// Branch-free ASCII classification. <cctype> calls go through the locale
// and are not inlined; on the hot per-character paths that indirection is
// the single largest lexing cost, so the table is worth its 256 bytes.
enum : unsigned char {
  kCharIdentStart = 1u << 0,  // [A-Za-z_]
  kCharIdent = 1u << 1,       // [A-Za-z0-9_]
  kCharDigit = 1u << 2,       // [0-9]
  kCharXDigit = 1u << 3,      // [0-9A-Fa-f]
};

constexpr std::array<unsigned char, 256> makeCharClasses() {
  std::array<unsigned char, 256> table{};
  for (int c = 'A'; c <= 'Z'; ++c) {
    table[static_cast<std::size_t>(c)] = kCharIdentStart | kCharIdent;
    table[static_cast<std::size_t>(c + 32)] = kCharIdentStart | kCharIdent;
  }
  table[static_cast<std::size_t>('_')] = kCharIdentStart | kCharIdent;
  for (int c = '0'; c <= '9'; ++c) {
    table[static_cast<std::size_t>(c)] =
        kCharIdent | kCharDigit | kCharXDigit;
  }
  for (int c = 'A'; c <= 'F'; ++c) {
    table[static_cast<std::size_t>(c)] =
        static_cast<unsigned char>(table[static_cast<std::size_t>(c)] |
                                   kCharXDigit);
    table[static_cast<std::size_t>(c + 32)] =
        static_cast<unsigned char>(table[static_cast<std::size_t>(c + 32)] |
                                   kCharXDigit);
  }
  return table;
}

constexpr std::array<unsigned char, 256> kCharClass = makeCharClasses();

inline bool hasClass(char c, unsigned char mask) {
  return (kCharClass[static_cast<unsigned char>(c)] & mask) != 0;
}

bool isIdentStart(char c) { return hasClass(c, kCharIdentStart); }
bool isIdentChar(char c) { return hasClass(c, kCharIdent); }
bool isDigit(char c) { return hasClass(c, kCharDigit); }
bool isXDigit(char c) { return hasClass(c, kCharXDigit); }

/// Length of the punctuator starting at (c0, c1, c2), longest match first.
/// Equivalent to scanning the classic {"<<=", ">>=", "...", "->*"} and
/// 2-char tables, but a switch on the lead character instead of up to 24
/// string compares per operator.
inline std::size_t punctuatorLength(char c0, char c1, char c2) {
  switch (c0) {
    case '<':
      if (c1 == '<') return c2 == '=' ? 3 : 2;  // <<=, <<
      return c1 == '=' ? 2 : 1;                 // <=
    case '>':
      if (c1 == '>') return c2 == '=' ? 3 : 2;  // >>=, >>
      return c1 == '=' ? 2 : 1;                 // >=
    case '-':
      if (c1 == '>') return c2 == '*' ? 3 : 2;  // ->*, ->
      return (c1 == '-' || c1 == '=') ? 2 : 1;  // --, -=
    case '.':
      return (c1 == '.' && c2 == '.') ? 3 : 1;  // ...
    case '+':
      return (c1 == '+' || c1 == '=') ? 2 : 1;  // ++, +=
    case '=':
    case '!':
      return c1 == '=' ? 2 : 1;  // ==, !=
    case '&':
      return (c1 == '&' || c1 == '=') ? 2 : 1;  // &&, &=
    case '|':
      return (c1 == '|' || c1 == '=') ? 2 : 1;  // ||, |=
    case '*':
    case '/':
    case '%':
    case '^':
      return c1 == '=' ? 2 : 1;  // *=, /=, %=, ^=
    case ':':
      return c1 == ':' ? 2 : 1;  // ::
    default:
      return 1;
  }
}

/// Pointer-range scanner over the stream's own buffer: one pass, no
/// allocation — every slice handed out is a view of that buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view source) : source_(source) {}

  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    const std::size_t i = pos_ + ahead;
    return i < source_.size() ? source_[i] : '\0';
  }
  char advance() noexcept {
    const char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  [[nodiscard]] bool match(std::string_view text) const noexcept {
    return source_.substr(pos_, text.size()) == text;
  }
  void skip(std::size_t n) noexcept {
    for (std::size_t i = 0; i < n && !atEnd(); ++i) advance();
  }

  [[nodiscard]] std::uint32_t line() const noexcept { return line_; }
  [[nodiscard]] std::uint32_t column() const noexcept { return column_; }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::string_view slice(std::size_t from) const noexcept {
    return source_.substr(from, pos_ - from);
  }

 private:
  std::string_view source_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t column_ = 1;
};

}  // namespace

TokenStream tokenize(std::string_view source) {
  TokenStream stream;
  stream.buffer_ = std::make_unique<char[]>(source.size() > 0 ? source.size() : 1);
  std::memcpy(stream.buffer_.get(), source.data(), source.size());
  stream.sourceSize_ = source.size();
  const std::string_view src = stream.source();

  std::vector<Token>& tokens = stream.tokens_;
  // ~1 token per 4 source bytes is a comfortable over-estimate for the
  // corpus subset; one reservation, no growth reallocations in practice.
  tokens.reserve(source.size() / 4 + 8);
  Cursor cur(src);

  auto emit = [&](TokenKind kind, std::string_view text, std::uint32_t line,
                  std::uint32_t column) {
    Token t;
    t.kind = kind;
    t.text = text;
    t.offset = static_cast<std::uint32_t>(text.data() - src.data());
    t.line = line;
    t.column = column;
    tokens.push_back(t);
  };

  while (!cur.atEnd()) {
    const char c = cur.peek();
    const std::uint32_t line = cur.line();
    const std::uint32_t column = cur.column();

    // Whitespace: not tokenized (layout metrics read the raw text).
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      cur.advance();
      continue;
    }

    // Preprocessor directive: only at start-of-line content-wise; we accept
    // any '#' and take the rest of the (possibly continued) line.
    if (c == '#') {
      const std::size_t start = cur.pos();
      while (!cur.atEnd() && cur.peek() != '\n') {
        if (cur.peek() == '\\' && cur.peek(1) == '\n') cur.advance();
        cur.advance();
      }
      emit(TokenKind::Preprocessor, cur.slice(start), line, column);
      continue;
    }

    // Comments (text is the interior slice, delimiters excluded).
    if (c == '/' && cur.peek(1) == '/') {
      cur.skip(2);
      const std::size_t start = cur.pos();
      while (!cur.atEnd() && cur.peek() != '\n') cur.advance();
      emit(TokenKind::LineComment, cur.slice(start), line, column);
      continue;
    }
    if (c == '/' && cur.peek(1) == '*') {
      cur.skip(2);
      const std::size_t start = cur.pos();
      std::size_t end = cur.pos();
      while (!cur.atEnd()) {
        if (cur.peek() == '*' && cur.peek(1) == '/') {
          end = cur.pos();
          cur.skip(2);
          break;
        }
        cur.advance();
        end = cur.pos();
      }
      emit(TokenKind::BlockComment, src.substr(start, end - start), line,
           column);
      continue;
    }

    // String / char literals (escapes respected, unterminated tolerated).
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t start = cur.pos();
      cur.advance();
      while (!cur.atEnd() && cur.peek() != quote && cur.peek() != '\n') {
        if (cur.peek() == '\\') cur.advance();
        if (!cur.atEnd()) cur.advance();
      }
      if (!cur.atEnd() && cur.peek() == quote) cur.advance();
      emit(quote == '"' ? TokenKind::StringLiteral : TokenKind::CharLiteral,
           cur.slice(start), line, column);
      continue;
    }

    // Numbers: ints, floats, suffixes (LL, U, f), hex.
    if (isDigit(c) || (c == '.' && isDigit(cur.peek(1)))) {
      const std::size_t start = cur.pos();
      bool isFloat = false;
      if (c == '0' && (cur.peek(1) == 'x' || cur.peek(1) == 'X')) {
        cur.skip(2);
        while (isXDigit(cur.peek())) cur.advance();
      } else {
        while (isDigit(cur.peek())) cur.advance();
        if (cur.peek() == '.' ) {
          isFloat = true;
          cur.advance();
          while (isDigit(cur.peek())) cur.advance();
        }
        if (cur.peek() == 'e' || cur.peek() == 'E') {
          isFloat = true;
          cur.advance();
          if (cur.peek() == '+' || cur.peek() == '-') cur.advance();
          while (isDigit(cur.peek())) cur.advance();
        }
      }
      while (isIdentChar(cur.peek())) {
        if (cur.peek() == 'f' || cur.peek() == 'F') isFloat = true;
        cur.advance();  // suffix letters (LL, u, f, ...)
      }
      emit(isFloat ? TokenKind::FloatLiteral : TokenKind::IntLiteral,
           cur.slice(start), line, column);
      continue;
    }

    // Identifiers / keywords.
    if (isIdentStart(c)) {
      const std::size_t start = cur.pos();
      while (isIdentChar(cur.peek())) cur.advance();
      const std::string_view word = cur.slice(start);
      emit(isCppKeyword(word) ? TokenKind::Keyword : TokenKind::Identifier,
           word, line, column);
      continue;
    }

    // Punctuators, longest match first.
    {
      const std::size_t start = cur.pos();
      cur.skip(punctuatorLength(c, cur.peek(1), cur.peek(2)));
      emit(TokenKind::Punctuator, cur.slice(start), line, column);
    }
  }

  {
    Token eof;
    eof.kind = TokenKind::EndOfFile;
    eof.text = src.substr(src.size(), 0);
    eof.offset = static_cast<std::uint32_t>(src.size());
    eof.line = cur.line();
    eof.column = cur.column();
    tokens.push_back(eof);
  }
  return stream;
}

std::vector<std::uint32_t> withoutTrivia(const TokenStream& stream) {
  std::vector<std::uint32_t> indices;
  indices.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    switch (stream[i].kind) {
      case TokenKind::LineComment:
      case TokenKind::BlockComment:
        break;
      default:
        indices.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return indices;
}

}  // namespace sca::lexer
