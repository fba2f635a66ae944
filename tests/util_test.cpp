#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace sca::util {
namespace {

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveIsIndependentOfParentUse) {
  Rng a(7);
  Rng childBefore = a.derive("x");
  a.next();
  a.next();
  // Deriving again from the mutated parent gives a different stream — but
  // the stream obtained *before* must be reproducible from a fresh parent.
  Rng b(7);
  Rng childFresh = b.derive("x");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(childBefore.next(), childFresh.next());
  }
}

TEST(Rng, DeriveByLabelSeparatesStreams) {
  Rng a(7);
  Rng x = a.derive("x");
  Rng y = a.derive("y");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (x.next() == y.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformReal();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbabilityRoughly) {
  Rng rng(11);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.weightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(17);
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.weightedIndex(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(19);
  const auto sample = rng.sampleIndices(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto i : sample) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleIndicesClampsOversizedRequest) {
  Rng rng(23);
  EXPECT_EQ(rng.sampleIndices(5, 100).size(), 5u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

// --------------------------------------------------------------- strings --

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = splitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim("\n\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, CaseConversions) {
  EXPECT_EQ(toLower("MiXeD"), "mixed");
  EXPECT_EQ(toUpper("MiXeD"), "MIXED");
  EXPECT_EQ(capitalize("wORD"), "Word");
  EXPECT_EQ(capitalize(""), "");
}

TEST(Strings, SplitIdentifierHandlesAllConventions) {
  EXPECT_EQ(splitIdentifier("numTestCases"),
            (std::vector<std::string>{"num", "test", "cases"}));
  EXPECT_EQ(splitIdentifier("max_time"),
            (std::vector<std::string>{"max", "time"}));
  EXPECT_EQ(splitIdentifier("MaxTime"),
            (std::vector<std::string>{"max", "time"}));
  EXPECT_EQ(splitIdentifier("x"), (std::vector<std::string>{"x"}));
  EXPECT_EQ(splitIdentifier("__"), (std::vector<std::string>{}));
}

TEST(Strings, CountLinesWithAndWithoutTrailingNewline) {
  EXPECT_EQ(countLines(""), 0u);
  EXPECT_EQ(countLines("a"), 1u);
  EXPECT_EQ(countLines("a\n"), 1u);
  EXPECT_EQ(countLines("a\nb"), 2u);
  EXPECT_EQ(countLines("a\nb\n"), 2u);
}

TEST(Strings, ReplaceAllNonOverlapping) {
  EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replaceAll("%x%", "%", "%%"), "%%x%%");
  EXPECT_EQ(replaceAll("abc", "", "z"), "abc");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(90.25, 1), "90.2");  // round-to-even
  EXPECT_EQ(formatDouble(100.0, 1), "100.0");
}

TEST(Strings, Hex64RoundTrip) {
  EXPECT_EQ(toHex64(0), "0000000000000000");
  EXPECT_EQ(toHex64(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(toHex64(~0ull), "ffffffffffffffff");
}

TEST(Strings, EnvSizeHonoursItsInclusiveMinimum) {
  constexpr const char* kName = "SCA_UTIL_TEST_ENV_SIZE";
  ::setenv(kName, "0", 1);
  EXPECT_THROW((void)envSize(kName, 5), std::invalid_argument);  // min 1
  EXPECT_EQ(envSize(kName, 5, 10, 0), 0u);
  ::setenv(kName, "3", 1);
  EXPECT_EQ(envSize(kName, 5, 10, 3), 3u);
  EXPECT_THROW((void)envSize(kName, 5, 10, 4), std::invalid_argument);
  EXPECT_THROW((void)envSize(kName, 5, 2, 0), std::invalid_argument);
  ::setenv(kName, "-1", 1);
  EXPECT_THROW((void)envSize(kName, 5, 10, 0), std::invalid_argument);
  ::setenv(kName, "", 1);  // empty means unset
  EXPECT_EQ(envSize(kName, 5, 10, 0), 5u);
  ::unsetenv(kName);
  EXPECT_EQ(envSize(kName, 5, 10, 0), 5u);
}

TEST(Strings, ParseSizeAcceptsWholeNumbersInRangeOnly) {
  EXPECT_EQ(parseSize("0"), std::optional<std::size_t>(0));
  EXPECT_EQ(parseSize("42"), std::optional<std::size_t>(42));
  EXPECT_EQ(parseSize("18446744073709551615"),
            std::optional<std::size_t>(18446744073709551615ull));
  for (const char* bad : {"", "2x", "abc", "-1", "+1", " 1", "1 ", "1.5",
                          "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parseSize(bad).has_value()) << bad;
  }
  EXPECT_EQ(parseSize("3", 3, 5), std::optional<std::size_t>(3));
  EXPECT_EQ(parseSize("5", 3, 5), std::optional<std::size_t>(5));
  EXPECT_FALSE(parseSize("2", 3, 5).has_value());
  EXPECT_FALSE(parseSize("6", 3, 5).has_value());
}

TEST(Strings, EnvTestHookInjectsNothingOnAMalformedValue) {
  constexpr const char* kName = "SCA_UTIL_TEST_HOOK";
  ::setenv(kName, "250", 1);
  EXPECT_EQ(envTestHook(kName, 1000), 250u);
  for (const char* bad : {"250x", "abc", "-1", "1001"}) {
    ::setenv(kName, bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envTestHook(kName, 1000), 0u) << bad;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(kName),
              std::string::npos)
        << bad;
  }
  ::unsetenv(kName);
  EXPECT_EQ(envTestHook(kName, 1000), 0u);
}

TEST(Strings, JsonObjectBuilderProducesParseableRecord) {
  const std::string record = JsonObjectBuilder()
                                 .add("name", "a \"b\"\nc")
                                 .addUint("count", 18446744073709551615ull)
                                 .addInt("delta", -42)
                                 .addDouble("ratio", 0.125, 3)
                                 .addRaw("nested", "{\"x\":1}")
                                 .str();
  EXPECT_EQ(record,
            "{\"name\":\"a \\\"b\\\"\\nc\",\"count\":18446744073709551615,"
            "\"delta\":-42,\"ratio\":0.125,\"nested\":{\"x\":1}}");

  std::string text;
  EXPECT_TRUE(jsonStringField(record, "name", &text));
  EXPECT_EQ(text, "a \"b\"\nc");
  long long number = 0;
  EXPECT_TRUE(jsonIntField(record, "delta", &number));
  EXPECT_EQ(number, -42);
}

TEST(Strings, JsonFieldExtractorsFailSoftOnTornRecords) {
  const std::string record =
      JsonObjectBuilder().add("key", "value").addInt("n", 7).str();
  // Any truncation must return false, never crash or return garbage.
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    const std::string torn = record.substr(0, cut);
    std::string text;
    long long number = 0;
    if (jsonStringField(torn, "key", &text)) {
      EXPECT_EQ(text, "value");
    }
    if (jsonIntField(torn, "n", &number)) {
      EXPECT_EQ(number, 7);
    }
  }
  std::string text;
  EXPECT_FALSE(jsonStringField(record, "missing", &text));
  long long number = 0;
  EXPECT_FALSE(jsonIntField(record, "key", &number));  // string, not int

  // The full range of long long reads exactly; one past either end, or a
  // value with more digits than fit, fails and leaves `*out` alone.
  EXPECT_TRUE(jsonIntField(R"({"n":9223372036854775807})", "n", &number));
  EXPECT_EQ(number, LLONG_MAX);
  EXPECT_TRUE(jsonIntField(R"({"n":-9223372036854775808})", "n", &number));
  EXPECT_EQ(number, LLONG_MIN);
  EXPECT_TRUE(jsonIntField(R"({"n":-0,"m":1})", "n", &number));
  EXPECT_EQ(number, 0);
  number = 42;
  EXPECT_FALSE(jsonIntField(R"({"n":9223372036854775808})", "n", &number));
  EXPECT_FALSE(jsonIntField(R"({"n":-9223372036854775809})", "n", &number));
  EXPECT_FALSE(
      jsonIntField(R"({"n":99999999999999999999999})", "n", &number));
  EXPECT_FALSE(jsonIntField(R"({"n":-})", "n", &number));
  EXPECT_FALSE(jsonIntField(R"({"n":+5})", "n", &number));
  EXPECT_EQ(number, 42);
}

// ----------------------------------------------------------------- stats --

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, EntropyUniformAndDegenerate) {
  const std::vector<std::size_t> uniform = {5, 5, 5, 5};
  EXPECT_NEAR(entropy(uniform), std::log(4.0), 1e-9);
  const std::vector<std::size_t> degenerate = {10, 0, 0};
  EXPECT_DOUBLE_EQ(entropy(degenerate), 0.0);
}

TEST(Histogram, RankedOrdersByCountThenKey) {
  Histogram h;
  h.add("b");
  h.add("a");
  h.add("b");
  h.add("c");
  h.add("a");
  h.add("a");
  const auto ranked = h.ranked();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, "a");
  EXPECT_EQ(ranked[0].second, 3u);
  EXPECT_EQ(ranked[1].first, "b");
  EXPECT_EQ(ranked[2].first, "c");
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count("missing"), 0u);
}

// ----------------------------------------------------------------- table --

TEST(Table, PrintsAlignedCells) {
  TablePrinter table("Caption");
  table.setHeader({"A", "Long header"});
  table.addRow({"row", "x"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Caption"), std::string::npos);
  EXPECT_NE(out.find("Long header"), std::string::npos);
  EXPECT_NE(out.find("| row"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  EXPECT_EQ(csvEscape("plain"), "plain");
  EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, ToCsvHasHeaderAndRows) {
  TablePrinter table("");
  table.setHeader({"x", "y"});
  table.addRow({"1", "2"});
  table.addSeparator();
  table.addRow({"3", "4"});
  EXPECT_EQ(table.toCsv(), "x,y\n1,2\n3,4\n");
}

}  // namespace
}  // namespace sca::util
