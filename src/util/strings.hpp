// Small string utilities shared across the pipeline (tokenization of
// identifiers into words, joining, trimming, simple formatting).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sca::util {

/// Splits on a single separator character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Splits on any whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> splitWhitespace(std::string_view text);

/// Joins the pieces with `sep` between them.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

[[nodiscard]] bool startsWith(std::string_view text, std::string_view prefix);
[[nodiscard]] bool endsWith(std::string_view text, std::string_view suffix);

[[nodiscard]] std::string toLower(std::string_view text);
[[nodiscard]] std::string toUpper(std::string_view text);

/// Capitalizes the first character, lowercases the rest ("word" -> "Word").
[[nodiscard]] std::string capitalize(std::string_view word);

/// Splits an identifier into lowercase words.
/// Handles snake_case, camelCase, PascalCase, SCREAMING_CASE and digits:
/// "numTestCases" -> {"num","test","cases"}, "max_time2" -> {"max","time2"}.
[[nodiscard]] std::vector<std::string> splitIdentifier(std::string_view name);

/// Number of source lines (final line counted even without trailing '\n').
[[nodiscard]] std::size_t countLines(std::string_view text);

/// Replaces every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replaceAll(std::string_view text,
                                     std::string_view from,
                                     std::string_view to);

/// Formats a double with fixed precision (locale-independent).
[[nodiscard]] std::string formatDouble(double value, int precision);

/// Escapes a string for inclusion inside a JSON string literal: quotes,
/// backslashes, and control characters (\n, \t, \r, and \u00XX for the
/// rest). The result round-trips through jsonUnescape.
[[nodiscard]] std::string jsonEscape(std::string_view text);

/// Inverse of jsonEscape over its output (also accepts the standard JSON
/// escapes \/ \b \f). Unknown escapes are kept verbatim without the
/// backslash; a trailing lone backslash is dropped.
[[nodiscard]] std::string jsonUnescape(std::string_view text);

/// Fixed-width lowercase hex of a 64-bit value ("00ff..." — 16 chars).
[[nodiscard]] std::string toHex64(std::uint64_t value);

/// The whole number in [`min`, `max`] that `text` spells in full: decimal
/// digits only, no sign, space or suffix. nullopt for anything else
/// (``, `16x`, `abc`, `-1`, `+1`, overflow, a value outside the bounds).
/// The one parser behind every whole-number env knob and CLI argument.
[[nodiscard]] std::optional<std::size_t> parseSize(
    std::string_view text, std::size_t min = 0,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// The integer in [`min`, `max`] in environment variable `name`, or
/// `fallback` when it is unset or empty. Anything else (`16x`, `abc`, `-1`,
/// overflow, a value below `min` or above `max`; with the default `min`,
/// `0`) throws std::invalid_argument naming the variable and its value.
[[nodiscard]] std::size_t envSize(
    const char* name, std::size_t fallback,
    std::size_t max = std::numeric_limits<std::size_t>::max(),
    std::size_t min = 1);

/// envSize(name, 0, max, 0) for a test hook read where a throw would end
/// the process (a span close, a pool task, the run-record writer): a
/// malformed value prints one stderr line naming the variable and reads
/// as 0, so nothing is injected.
[[nodiscard]] std::size_t envTestHook(const char* name, std::size_t max);

/// The finite number >= 0 in environment variable `name`, or `fallback`
/// when it is unset or empty. Anything else (`0.05x`, `abc`, `-1`, `inf`,
/// overflow) throws std::invalid_argument naming the variable and its
/// value.
[[nodiscard]] double envDouble(const char* name, double fallback);

// ------------------------------------------------ line-record JSON idioms --
// The run history, the structured event log and the serve protocol are all
// JSONL: one self-contained object per line, written by JsonObjectBuilder
// and read back with the field scanners below. The scanners are
// deliberately not a JSON parser: a field is located by its `"name":`
// needle, so they only read formats this repo itself emits — but that also
// makes a torn or truncated record fail loudly (false) instead of yielding
// half a value.

/// Extracts the string value of `"field":"..."` from one record, honoring
/// backslash escapes (result is jsonUnescape'd). False when the field is
/// absent or the record is torn mid-string.
[[nodiscard]] bool jsonStringField(std::string_view record,
                                   std::string_view field, std::string* out);

/// Extracts the integer value of `"field":123`. False when absent,
/// non-numeric or outside the range of long long.
[[nodiscard]] bool jsonIntField(std::string_view record,
                                std::string_view field, long long* out);

/// Extracts the numeric value of `"field":1.25` (integer or decimal,
/// optional sign/exponent — whatever formatDouble emits). False when
/// absent or non-numeric.
[[nodiscard]] bool jsonDoubleField(std::string_view record,
                                   std::string_view field, double* out);

/// Builds `{"k":v,...}` incrementally with the repo's canonical idioms:
/// keys and string values jsonEscape'd, doubles via formatDouble, nested
/// objects spliced in raw. str() may be called at any point; the builder
/// stays usable afterwards.
class JsonObjectBuilder {
 public:
  JsonObjectBuilder& add(std::string_view key, std::string_view value);
  JsonObjectBuilder& addUint(std::string_view key, std::uint64_t value);
  JsonObjectBuilder& addInt(std::string_view key, long long value);
  JsonObjectBuilder& addDouble(std::string_view key, double value,
                               int precision);
  /// `rawJson` is spliced verbatim (caller guarantees it is valid JSON).
  JsonObjectBuilder& addRaw(std::string_view key, std::string_view rawJson);

  [[nodiscard]] std::string str() const { return body_ + "}"; }

 private:
  JsonObjectBuilder& key(std::string_view key);
  std::string body_ = "{";
  bool first_ = true;
};

}  // namespace sca::util
