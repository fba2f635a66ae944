#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/history.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca::obs {
namespace {

RunRecord makeRecord(const std::string& bench, double totalSeconds,
                     const std::string& digest = "00000000000000aa",
                     std::uint64_t threads = 4) {
  RunRecord record;
  record.bench = bench;
  record.complete = true;
  record.gitSha = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
  record.threads = threads;
  record.envClass = "SCA_FAULT_RATE=0.05";
  record.digest = digest;
  record.totalSeconds = totalSeconds;
  record.maxRssKb = 51240;
  record.phases = {{"corpus_build", totalSeconds * 0.4},
                   {"llm_transform", totalSeconds * 0.6}};
  return record;
}

/// TempDir() outlives the test run, and the history is append-only by
/// design — start every history test from a path guaranteed not to exist.
std::string freshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Writes one record for `bench` to the history at `path` only.
void appendRecord(const std::string& path, const std::string& bench,
                  double totalSeconds) {
  FinishedRun run;
  run.bench = bench;
  run.threads = 4;
  run.complete = true;
  run.totalSeconds = totalSeconds;
  run.historyPath = path;
  ASSERT_TRUE(writeRunRecord(run).isOk());
}

TEST(HistoryRecordTest, JsonRoundTripPreservesEveryField) {
  ::setenv("SCA_GIT_SHA", "0123456789abcdef0123456789abcdef01234567", 1);
  ::setenv("SCA_HISTORY_TEST_KNOB", "x", 1);  // SCA_HISTORY*: not in class
  ::setenv("SCA_RECORD_TEST_KNOB", "7", 1);
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.counter("history_test_stable").add(3);
  registry.counter("history_test_runtime", Stability::kRuntime).add(2);
  registry.gauge(std::string(kPhaseGaugePrefix) + "history_test_phase")
      .add(0.25);

  FinishedRun run;
  run.bench = "micro_pipeline";
  run.threads = 6;
  run.complete = false;
  run.partialCause = "watchdog_stall";
  run.totalSeconds = 1.25;
  run.manifestPath = freshPath("record_roundtrip.json");
  run.historyPath = freshPath("record_roundtrip.jsonl");
  ASSERT_TRUE(writeRunRecord(run).isOk());
  ::unsetenv("SCA_GIT_SHA");
  ::unsetenv("SCA_HISTORY_TEST_KNOB");
  ::unsetenv("SCA_RECORD_TEST_KNOB");

  // One render, two destinations: the manifest is the history line.
  const util::Result<std::string> manifest = util::readFile(run.manifestPath);
  const util::Result<std::string> history = util::readFile(run.historyPath);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(manifest.value(), history.value());
  EXPECT_EQ(manifest.value().find('\n'), manifest.value().size() - 1);

  RunRecord back;
  ASSERT_TRUE(parseRunRecord(manifest.value(), &back));
  EXPECT_EQ(back.bench, run.bench);
  EXPECT_FALSE(back.complete);
  EXPECT_EQ(back.partialCause, "watchdog_stall");
  EXPECT_EQ(back.gitSha, "0123456789abcdef0123456789abcdef01234567");
  EXPECT_EQ(back.threads, 6u);
  EXPECT_DOUBLE_EQ(back.totalSeconds, 1.25);
  long long ts = 0;
  EXPECT_TRUE(util::jsonIntField(manifest.value(), "ts", &ts));
  EXPECT_GT(ts, 0);
  EXPECT_EQ(back.env.at("SCA_RECORD_TEST_KNOB"), "7");
  EXPECT_EQ(back.env.at("SCA_HISTORY_TEST_KNOB"), "x");
  EXPECT_NE(back.envClass.find("SCA_RECORD_TEST_KNOB=7"), std::string::npos);
  EXPECT_EQ(back.envClass.find("SCA_HISTORY"), std::string::npos);
  EXPECT_EQ(back.envClass.find("SCA_GIT_SHA"), std::string::npos);
  EXPECT_EQ(back.counters.at("history_test_stable"), 3u);
  EXPECT_EQ(back.counters.count("history_test_runtime"), 0u);
  EXPECT_EQ(back.runtimeCounters.at("history_test_runtime"), 2u);
  EXPECT_DOUBLE_EQ(back.phases.at("history_test_phase"), 0.25);
  // The rusage sample lands in the gauges, and max_rss_kb derives from it.
  EXPECT_GT(back.maxRssKb, 0u);
  EXPECT_DOUBLE_EQ(static_cast<double>(back.maxRssKb),
                   back.gauges.at("rusage_max_rss_kb"));
  // The digest is the hash of the raw stable section, which is the
  // registry's canonical rendering.
  EXPECT_EQ(back.metrics, stableMetricsJson(registry.snapshot()));
  EXPECT_EQ(back.digest, util::toHex64(util::hash64(back.metrics)));
}

TEST(HistoryRecordTest, ParseRejectsTornAndForeignLines) {
  const std::string path = freshPath("record_torn.jsonl");
  appendRecord(path, "b", 1.0);
  const util::Result<std::string> raw = util::readFile(path);
  ASSERT_TRUE(raw.ok());
  const std::string line = raw.value();
  RunRecord out;
  ASSERT_TRUE(parseRunRecord(line, &out));
  for (std::size_t cut = 0; cut + 1 < line.size(); ++cut) {
    EXPECT_FALSE(parseRunRecord(line.substr(0, cut), &out)) << cut;
  }
  EXPECT_FALSE(parseRunRecord("{\"foo\":1}", &out));
  EXPECT_FALSE(parseRunRecord("", &out));
  EXPECT_FALSE(parseRunRecord("not json at all", &out));
  EXPECT_FALSE(parseRunRecord(
      util::replaceAll(line, "sca-run-v1", "sca-run-v2"), &out));
  EXPECT_FALSE(parseRunRecord(
      util::replaceAll(line, "\"threads\":4", "\"threads\":4x"), &out));
  EXPECT_FALSE(parseRunRecord(
      "{\"bench\":\"micro_pipeline\",\"status\":\"complete\","
      "\"threads\":1,\"digest\":\"a38bfa770ce2d4c6\",\"total_s\":0.1}",
      &out));
}

TEST(HistoryStoreTest, AppendedRecordsLoadBack) {
  const std::string path = freshPath("history_roundtrip.jsonl");
  appendRecord(path, "micro_pipeline", 1.0);
  appendRecord(path, "micro_pipeline", 1.1);
  const HistoryLoad loaded = loadHistory(path);
  EXPECT_EQ(loaded.skippedLines, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 1.0);
  EXPECT_DOUBLE_EQ(loaded.records[1].totalSeconds, 1.1);

  // No header: every line is a whole record that names its own schema.
  const util::Result<std::string> raw = util::readFile(path);
  ASSERT_TRUE(raw.ok());
  const std::vector<std::string> lines = util::split(raw.value(), '\n');
  ASSERT_EQ(lines.size(), 3u);  // two records and the final newline
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(lines[i].rfind("{\"schema\":\"sca-run-v1\",", 0), 0u);
  }
}

TEST(HistoryStoreTest, TornLastLineIsSkippedNotFatal) {
  const std::string path = freshPath("history_torn.jsonl");
  appendRecord(path, "a", 1.0);
  appendRecord(path, "a", 2.0);

  // Simulate a kill mid-append: chop the final record in half.
  const util::Result<std::string> raw = util::readFile(path);
  ASSERT_TRUE(raw.ok());
  std::string torn = raw.value();
  torn.resize(torn.size() - torn.size() / 4);
  ASSERT_TRUE(util::atomicWriteFile(path, torn).isOk());

  const HistoryLoad loaded = loadHistory(path);
  EXPECT_EQ(loaded.skippedLines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 1.0);
}

// A history written before the records named their own schema: a header
// line, then lines in the old record layout.
TEST(HistoryStoreTest, OldFormatLinesAreSkippedAndCounted) {
  const std::string path = freshPath("history_old_format.jsonl");
  ASSERT_TRUE(util::atomicWriteFile(
                  path,
                  "{\"magic\":\"some-other-format\"}\n"
                  "{\"bench\":\"a\",\"status\":\"complete\",\"git_sha\":"
                  "\"unknown\",\"threads\":1,\"env_class\":\"\",\"digest\":"
                  "\"a38bfa770ce2d4c6\",\"total_s\":0.1,\"max_rss_kb\":9752,"
                  "\"user_s\":0.09,\"sys_s\":0.0,\"ts\":1786166207,"
                  "\"phases\":{},\"counters\":{}}\n")
                  .isOk());
  HistoryLoad loaded = loadHistory(path);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.skippedLines, 2u);

  // A current record appended after them still reads.
  appendRecord(path, "a", 1.0);
  loaded = loadHistory(path);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.skippedLines, 2u);
}

TEST(HistoryStoreTest, MissingFileIsEmptyNotError) {
  const std::string path = freshPath("history_never_written.jsonl");
  const HistoryLoad loaded = loadHistory(path);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.skippedLines, 0u);
  // gc never rewrites a history it could not read.
  EXPECT_FALSE(gcHistory(path, 2).ok());
  EXPECT_FALSE(util::readFile(path).ok());
}

TEST(HistoryStoreTest, GcKeepsNewestPerGroupPreservingOrder) {
  const std::string path = freshPath("history_gc.jsonl");
  for (int i = 0; i < 5; ++i) appendRecord(path, "a", 1.0 + i);
  appendRecord(path, "b", 9.0);
  const util::Result<std::string> before = util::readFile(path);
  ASSERT_TRUE(before.ok());
  const std::vector<std::string> lines = util::split(before.value(), '\n');
  ASSERT_TRUE(util::appendLine(path, "{\"torn\":").isOk());

  const util::Result<std::size_t> dropped = gcHistory(path, 2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 3u);

  // The two newest "a" runs survive, in their original order, then "b" —
  // as the raw lines that were written, not a re-rendering; the torn line
  // goes.
  const util::Result<std::string> after = util::readFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(),
            lines[3] + "\n" + lines[4] + "\n" + lines[5] + "\n");
  const HistoryLoad loaded = loadHistory(path);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 4.0);
  EXPECT_DOUBLE_EQ(loaded.records[1].totalSeconds, 5.0);
  EXPECT_EQ(loaded.records[2].bench, "b");
}

// --- regression detector --------------------------------------------------

TEST(RegressionTest, IdenticalRunsPass) {
  const std::vector<RunRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  const RegressionReport report = checkRegressions(records);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.groupsChecked, 1u);
  EXPECT_EQ(report.groupsSkipped, 0u);
}

TEST(RegressionTest, TwoFoldSlowdownIsFlagged) {
  std::vector<RunRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  records.push_back(makeRecord("a", 2.0));  // 2x: well past 1.5x + 0.05 s
  const RegressionReport report = checkRegressions(records);
  ASSERT_FALSE(report.ok());
  for (const RegressionFinding& finding : report.findings) {
    EXPECT_EQ(finding.kind, "perf");
    EXPECT_EQ(finding.bench, "a");
    EXPECT_GT(finding.current, finding.baseline);
  }
}

TEST(RegressionTest, NoiseWithinToleranceIsNotFlagged) {
  std::vector<RunRecord> records = {
      makeRecord("a", 1.00), makeRecord("a", 0.98), makeRecord("a", 1.02)};
  records.push_back(makeRecord("a", 1.04));  // +4%: inside both gates
  EXPECT_TRUE(checkRegressions(records).ok());
}

TEST(RegressionTest, DigestChangeIsAlwaysFlagged) {
  std::vector<RunRecord> records = {makeRecord("a", 1.0),
                                    makeRecord("a", 1.0)};
  // Faster AND different answer: speed never excuses a digest change.
  records.push_back(makeRecord("a", 0.5, "00000000000000bb"));
  const RegressionReport report = checkRegressions(records);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "digest");

  EXPECT_TRUE(checkRegressions(records, /*checkDigest=*/false).ok());
}

TEST(RegressionTest, PartialRunsAreIgnored) {
  std::vector<RunRecord> records = {makeRecord("a", 1.0),
                                    makeRecord("a", 1.0)};
  RunRecord crashed = makeRecord("a", 40.0, "00000000000000cc");
  crashed.complete = false;  // hung run that was killed: not evidence
  records.push_back(crashed);
  EXPECT_TRUE(checkRegressions(records).ok());
}

TEST(RegressionTest, DifferentThreadCountsDoNotCompare) {
  const std::vector<RunRecord> records = {
      makeRecord("a", 4.0, "00000000000000aa", 1),
      makeRecord("a", 1.0, "00000000000000aa", 8)};
  const RegressionReport report = checkRegressions(records);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.groupsChecked, 0u);
  EXPECT_EQ(report.groupsSkipped, 2u);  // two singleton groups, no baseline
}

TEST(RegressionTest, RssBlowUpIsFlaggedAndNoiseIsNot) {
  std::vector<RunRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  // 4x the 51240 KB baseline and far past the absolute floor.
  RunRecord bloated = makeRecord("a", 1.0);
  bloated.maxRssKb = 51240 * 4;
  records.push_back(bloated);

  const RegressionReport report = checkRegressions(records);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "rss");
  EXPECT_GT(report.findings[0].current, report.findings[0].baseline);

  // Same ratio on a tiny footprint: relative gate trips but the absolute
  // floor (32 MiB) does not — page-cache noise, not a regression.
  std::vector<RunRecord> tiny;
  for (int i = 0; i < 3; ++i) {
    RunRecord r = makeRecord("a", 1.0);
    r.maxRssKb = 1000;
    tiny.push_back(r);
  }
  RunRecord wobble = makeRecord("a", 1.0);
  wobble.maxRssKb = 4000;
  tiny.push_back(wobble);
  EXPECT_TRUE(checkRegressions(tiny).ok());

  // Records without an RSS sample never baseline and never trigger.
  std::vector<RunRecord> unsampled = {makeRecord("a", 1.0),
                                      makeRecord("a", 1.0)};
  unsampled[0].maxRssKb = 0;
  unsampled[1].maxRssKb = 0;
  EXPECT_TRUE(checkRegressions(unsampled).ok());
}

TEST(RegressionTest, WindowLimitsTheBaseline) {
  // Old slow era, then a fast regime the window's length (5 runs): the
  // current run must baseline against the recent fast runs, not the
  // ancient slow ones.
  std::vector<RunRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(makeRecord("a", 10.0));
  for (int i = 0; i < 5; ++i) records.push_back(makeRecord("a", 1.0));
  records.push_back(makeRecord("a", 2.0));
  EXPECT_FALSE(checkRegressions(records).ok());
}

}  // namespace
}  // namespace sca::obs
