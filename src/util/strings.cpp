#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace sca::util {
namespace {

bool isSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> splitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && isSpace(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !isSpace(text[i])) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && isSpace(text[begin])) ++begin;
  while (end > begin && isSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string toLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string toUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string capitalize(std::string_view word) {
  std::string out = toLower(word);
  if (!out.empty()) {
    out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  }
  return out;
}

std::vector<std::string> splitIdentifier(std::string_view name) {
  std::vector<std::string> words;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      words.push_back(toLower(current));
      current.clear();
    }
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '_') {
      flush();
      continue;
    }
    const bool upper = std::isupper(static_cast<unsigned char>(c)) != 0;
    if (upper && !current.empty()) {
      // camelCase boundary: new word unless we're inside an acronym run and
      // the next char is also uppercase or end-of-name.
      const char prev = current.back();
      const bool prevUpper = std::isupper(static_cast<unsigned char>(prev)) != 0;
      const bool nextLower =
          i + 1 < name.size() &&
          std::islower(static_cast<unsigned char>(name[i + 1])) != 0;
      if (!prevUpper || nextLower) flush();
    }
    current += c;
  }
  flush();
  return words;
}

std::size_t countLines(std::string_view text) {
  if (text.empty()) return 0;
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  if (text.back() != '\n') ++lines;
  return lines;
}

std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) {
      out += text.substr(pos);
      return out;
    }
    out += text.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

std::string formatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) break;  // lone trailing backslash
    ++i;
    switch (text[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        if (i + 4 < text.size()) {
          unsigned value = 0;
          bool valid = true;
          for (std::size_t k = 1; k <= 4; ++k) {
            const char h = text[i + k];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else { valid = false; break; }
          }
          if (valid && value < 0x80) {
            out += static_cast<char>(value);
            i += 4;
            break;
          }
        }
        out += 'u';
        break;
      default: out += text[i];
    }
  }
  return out;
}

std::string toHex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::size_t> parseSize(std::string_view text, std::size_t min,
                                     std::size_t max) {
  const char* end = text.data() + text.size();
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min || parsed > max) {
    return std::nullopt;
  }
  return parsed;
}

std::size_t envSize(const char* name, std::size_t fallback,
                    std::size_t max, std::size_t min) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (const std::optional<std::size_t> parsed = parseSize(raw, min, max)) {
    return *parsed;
  }
  std::string expected = "an integer >= " + std::to_string(min);
  if (max != std::numeric_limits<std::size_t>::max()) {
    expected += " and <= " + std::to_string(max);
  }
  throw std::invalid_argument(std::string(name) + "=" + raw + ": expected " +
                              expected);
}

std::size_t envTestHook(const char* name, std::size_t max) {
  try {
    return envSize(name, 0, max, 0);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "[test-hook] ignoring %s\n", error.what());
    return 0;
  }
}

double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(raw, end, parsed);
  if (ec != std::errc() || ptr != end || !std::isfinite(parsed) ||
      parsed < 0.0) {
    throw std::invalid_argument(std::string(name) + "=" + raw +
                                ": expected a finite number >= 0");
  }
  return parsed;
}

bool jsonStringField(std::string_view record, std::string_view field,
                     std::string* out) {
  const std::string needle = "\"" + std::string(field) + "\":\"";
  const std::size_t start = record.find(needle);
  if (start == std::string_view::npos) return false;
  std::size_t i = start + needle.size();
  std::string raw;
  while (i < record.size()) {
    if (record[i] == '\\') {
      if (i + 1 >= record.size()) return false;  // torn mid-escape
      raw += record[i];
      raw += record[i + 1];
      i += 2;
      continue;
    }
    if (record[i] == '"') {
      *out = jsonUnescape(raw);
      return true;
    }
    raw += record[i];
    ++i;
  }
  return false;  // unterminated string: torn record
}

bool jsonIntField(std::string_view record, std::string_view field,
                  long long* out) {
  const std::string needle = "\"" + std::string(field) + "\":";
  const std::size_t start = record.find(needle);
  if (start == std::string_view::npos) return false;
  const char* const end = record.data() + record.size();
  long long value = 0;
  if (std::from_chars(record.data() + start + needle.size(), end, value).ec !=
      std::errc()) {
    return false;
  }
  *out = value;
  return true;
}

bool jsonDoubleField(std::string_view record, std::string_view field,
                     double* out) {
  const std::string needle = "\"" + std::string(field) + "\":";
  const std::size_t start = record.find(needle);
  if (start == std::string_view::npos) return false;
  const std::size_t i = start + needle.size();
  if (i >= record.size()) return false;
  const char first = record[i];
  if (first != '-' && (first < '0' || first > '9')) return false;
  // strtod needs a terminated buffer; numbers this repo emits are short.
  const std::string text(record.substr(i, 64));
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return false;
  *out = value;
  return true;
}

JsonObjectBuilder& JsonObjectBuilder::key(std::string_view key) {
  if (!first_) body_ += ',';
  first_ = false;
  body_ += '"';
  body_ += jsonEscape(key);
  body_ += "\":";
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::add(std::string_view key,
                                          std::string_view value) {
  this->key(key);
  body_ += '"';
  body_ += jsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::addUint(std::string_view key,
                                              std::uint64_t value) {
  this->key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::addInt(std::string_view key,
                                             long long value) {
  this->key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::addDouble(std::string_view key,
                                                double value, int precision) {
  this->key(key);
  body_ += formatDouble(value, precision);
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::addRaw(std::string_view key,
                                             std::string_view rawJson) {
  this->key(key);
  body_ += rawJson;
  return *this;
}

}  // namespace sca::util
