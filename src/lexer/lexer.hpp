// Hand-written zero-copy tokenizer for the C++ subset the corpus renderer
// emits, with graceful handling of anything else (unknown characters
// become single-character punctuators rather than errors).
//
// tokenize() copies the source ONCE into a TokenStream-owned buffer and
// never allocates per token: every Token::text is a std::string_view slice
// of that buffer. Lifetime rule: tokens borrow from their TokenStream —
// they are valid exactly as long as the stream object is alive. The
// backing buffer is heap-allocated and stable under moves, so moving a
// TokenStream never invalidates its tokens.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "lexer/token.hpp"

namespace sca::lexer {

/// Owns a source buffer plus the tokens lexed from it (terminated by an
/// EndOfFile token). Movable, not copyable (a copy would have to re-anchor
/// every view; callers that need one re-tokenize instead).
class TokenStream {
 public:
  TokenStream() = default;
  TokenStream(TokenStream&&) noexcept = default;
  TokenStream& operator=(TokenStream&&) noexcept = default;
  TokenStream(const TokenStream&) = delete;
  TokenStream& operator=(const TokenStream&) = delete;

  /// The stream's own stable copy of the source text.
  [[nodiscard]] std::string_view source() const noexcept {
    return {buffer_.get(), sourceSize_};
  }

  [[nodiscard]] const std::vector<Token>& tokens() const noexcept {
    return tokens_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return tokens_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tokens_.empty(); }
  [[nodiscard]] const Token& operator[](std::size_t i) const noexcept {
    return tokens_[i];
  }
  [[nodiscard]] auto begin() const noexcept { return tokens_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tokens_.end(); }

 private:
  friend TokenStream tokenize(std::string_view source);

  std::unique_ptr<char[]> buffer_;  // stable: moves never re-anchor views
  std::size_t sourceSize_ = 0;
  std::vector<Token> tokens_;
};

/// Tokenizes `source` into a TokenStream terminated by an EndOfFile token.
///
/// Never throws on malformed input: unterminated strings/comments are
/// closed at end of input, unknown bytes are emitted as punctuators. This
/// matters because the attribution pipeline must consume *any* code an
/// adversary (the synthetic LLM) produces.
[[nodiscard]] TokenStream tokenize(std::string_view source);

/// Indices of the non-trivia tokens (comments stripped) — an index filter
/// over the stream rather than a copied token vector.
[[nodiscard]] std::vector<std::uint32_t> withoutTrivia(
    const TokenStream& stream);

}  // namespace sca::lexer
