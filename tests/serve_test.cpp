// Tests for the JSONL serving loop: protocol parsing, admission /
// load-shedding, deadline budgets, shutdown semantics and the honesty of
// the drain record.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "corpus/challenges.hpp"
#include "llm/synthetic_llm.hpp"
#include "obs/log.hpp"
#include "serve/protocol.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca::serve {
namespace {

constexpr int kYear = 2017;

ServerOptions smallServer(int shards = 1) {
  ServerOptions options;
  options.queueCapacity = 64;
  options.batchSize = 8;
  options.arrivalBurst = 8;
  options.year = kYear;
  options.fleet.shards = shards;
  options.fleet.year = kYear;
  return options;
}

std::vector<std::string> runLines(Server& server, const std::string& stream,
                                  ServeStats* stats) {
  std::istringstream in(stream);
  std::ostringstream out;
  *stats = server.run(in, out);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

std::string dataLine(const char* op, const std::string& id, long long chain,
                     long long deadlineSeconds = -1) {
  util::JsonObjectBuilder builder;
  builder.add("op", op);
  builder.add("id", id);
  builder.addInt("chain", chain);
  if (std::string_view(op) == "generate") {
    builder.addInt("challenge", 0);
  } else {
    builder.add("source", "int main() { return 0; }\n");
  }
  if (deadlineSeconds > 0) builder.addInt("deadline_s", deadlineSeconds);
  return builder.str() + "\n";
}

// -------------------------------------------------------------- protocol

TEST(Protocol, ParsesDataAndControlOps) {
  Request generate = parseRequest(
      R"({"op":"generate","id":"r1","chain":7,"challenge":3,"deadline_s":25})");
  EXPECT_EQ(generate.op, Op::kGenerate);
  EXPECT_EQ(generate.id, "r1");
  EXPECT_EQ(generate.chain, 7);
  EXPECT_EQ(generate.challenge, 3);
  EXPECT_EQ(generate.deadlineSeconds, 25);

  Request transform = parseRequest(
      R"({"op":"transform","id":"r2","chain":7,"source":"int x;"})");
  EXPECT_EQ(transform.op, Op::kTransform);
  EXPECT_EQ(transform.source, "int x;");
  EXPECT_EQ(transform.deadlineSeconds, -1);

  Request slow = parseRequest(
      R"({"op":"slow_shard","id":"c1","shard":2,"slowed":0})");
  EXPECT_EQ(slow.op, Op::kSlowShard);
  EXPECT_EQ(slow.shard, 2);
  EXPECT_FALSE(slow.slowed);
  EXPECT_TRUE(isControl(slow.op));

  Request shutdown = parseRequest(R"({"op":"shutdown","id":"c2"})");
  EXPECT_EQ(shutdown.op, Op::kShutdown);
  EXPECT_TRUE(isControl(shutdown.op));
  EXPECT_FALSE(isControl(Op::kGenerate));
}

TEST(Protocol, MalformedLinesComeBackInvalidWithRecoveredId) {
  Request garbage = parseRequest("not json at all");
  EXPECT_EQ(garbage.op, Op::kInvalid);
  EXPECT_FALSE(garbage.error.empty());

  // Missing required field: id is still recovered so the error response
  // correlates with the request.
  Request missing = parseRequest(R"({"op":"generate","id":"r9","chain":1})");
  EXPECT_EQ(missing.op, Op::kInvalid);
  EXPECT_EQ(missing.id, "r9");
  EXPECT_FALSE(missing.error.empty());

  Request unknownOp = parseRequest(R"({"op":"reboot","id":"r10"})");
  EXPECT_EQ(unknownOp.op, Op::kInvalid);
}

TEST(Protocol, ResponseBuildersEmitTheDocumentedSchema) {
  const std::string ok = okResponse("r1", "int x;", 2, 1.125);
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(ok.find("\"shard\":2"), std::string::npos);
  EXPECT_NE(ok.find("\"sim_s\":1.125"), std::string::npos);

  const std::string error = errorResponse("r2", "timeout", "gone");
  EXPECT_NE(error.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(error.find("\"code\":\"timeout\""), std::string::npos);

  EXPECT_NE(overloadedResponse("r3").find("\"status\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(rejectedResponse("r4").find("\"status\":\"rejected\""),
            std::string::npos);
  const std::string ack = ackResponse("c1", Op::kKillShard);
  EXPECT_NE(ack.find("\"status\":\"ack\""), std::string::npos);
  EXPECT_NE(ack.find("\"op\":\"kill_shard\""), std::string::npos);
}

// Satellite: numeric fields are range-checked at parse time, and each
// rejection names the offending field so the client can fix the request.
TEST(Protocol, OutOfRangeNumericFieldsAreRejectedWithAReason) {
  const Request negChain = parseRequest(
      R"({"op":"transform","id":"r1","chain":-2,"source":"int x;"})");
  EXPECT_EQ(negChain.op, Op::kInvalid);
  EXPECT_NE(negChain.error.find("\"chain\" out of range"),
            std::string::npos);

  const Request negDeadline = parseRequest(
      R"({"op":"transform","id":"r2","chain":1,"source":"x","deadline_s":-5})");
  EXPECT_EQ(negDeadline.op, Op::kInvalid);
  EXPECT_NE(negDeadline.error.find("\"deadline_s\" out of range"),
            std::string::npos);

  const Request bigShard = parseRequest(
      R"({"op":"slow_shard","id":"c1","shard":9999})");
  EXPECT_EQ(bigShard.op, Op::kInvalid);
  EXPECT_NE(bigShard.error.find("\"shard\" out of range"),
            std::string::npos);

  const Request negChallenge = parseRequest(
      R"({"op":"generate","id":"r3","chain":0,"challenge":-1})");
  EXPECT_EQ(negChallenge.op, Op::kInvalid);
  EXPECT_NE(negChallenge.error.find("\"challenge\" out of range"),
            std::string::npos);

  // A chain past the range of long long is not a number the scanner can
  // read, so the request is invalid rather than overflowing into a value.
  const Request hugeChain = parseRequest(
      R"({"op":"generate","id":"x","chain":99999999999999999999999,"challenge":0})");
  EXPECT_EQ(hugeChain.op, Op::kInvalid);
  EXPECT_EQ(hugeChain.id, "x");
  EXPECT_FALSE(hugeChain.error.empty());

  // The structured invalid response carries the reason verbatim.
  const std::string response = invalidResponse("r2", negDeadline.error);
  EXPECT_NE(response.find("\"code\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(response.find("\"reason\":\"\\\"deadline_s\\\" out of range\""),
            std::string::npos);
}

TEST(Protocol, StatsParsesInlineAndTimingAppendsInPlace) {
  const Request stats = parseRequest(R"({"op":"stats","id":"s1"})");
  EXPECT_EQ(stats.op, Op::kStats);
  // stats is answered inline during admission, NOT a batch barrier like
  // the chaos controls — otherwise the queue it reports would always have
  // just been drained.
  EXPECT_FALSE(isControl(stats.op));

  const std::string timed = appendTimingField(
      okResponse("r1", "int x;", 0, 0.0), R"({"sim_s":0.0,"retries":0})");
  EXPECT_EQ(timed.back(), '}');
  EXPECT_NE(timed.find(",\"timing\":{\"sim_s\":0.0,\"retries\":0}}"),
            std::string::npos);
}

// ---------------------------------------------------------------- server

TEST(Server, ServesConversationsByteIdenticalToTheBareModel) {
  Server server(smallServer(/*shards=*/2));
  std::string stream;
  stream += dataLine("generate", "a0", 0);
  stream += dataLine("generate", "b0", 1);
  stream += dataLine("transform", "a1", 0);
  stream += dataLine("transform", "b1", 1);

  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_DOUBLE_EQ(stats.availabilityPct(), 100.0);

  // Chain 0's generate must equal the bare single-client model under the
  // serve-chain seed: sharding is invisible in the bytes.
  llm::LlmOptions options;
  options.year = kYear;
  options.seed = util::combine64(util::hash64("serve-chain"), 0);
  llm::SyntheticLlm bare(options);
  const auto challenges = corpus::challengesForYear(kYear);
  const std::string expected = bare.generate(*challenges.front());

  bool found = false;
  for (const std::string& line : lines) {
    std::string id;
    if (!util::jsonStringField(line, "id", &id) || id != "a0") continue;
    std::string output;
    ASSERT_TRUE(util::jsonStringField(line, "output", &output));
    EXPECT_EQ(output, expected);
    found = true;
  }
  EXPECT_TRUE(found);
  // Responses come back in request order; the drain record is last.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines.back().find("\"event\":\"drain\""), std::string::npos);
}

TEST(Server, ShedsExplicitlyWhenTheQueueIsFull) {
  ServerOptions options = smallServer();
  options.queueCapacity = 1;
  options.arrivalBurst = 8;
  Server server(options);

  std::string stream;
  for (int i = 0; i < 4; ++i) {
    stream += dataLine("transform", "r" + std::to_string(i), 0);
  }
  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);

  // One admitted per burst, the rest answered "overloaded" immediately —
  // never silently dropped.
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.shed, 3u);
  int overloaded = 0;
  for (const std::string& line : lines) {
    if (line.find("\"status\":\"overloaded\"") != std::string::npos) {
      ++overloaded;
    }
  }
  EXPECT_EQ(overloaded, 3);
  EXPECT_DOUBLE_EQ(stats.availabilityPct(), 25.0);
}

TEST(Server, ShutdownRejectsQueuedWorkAndDrains) {
  Server server(smallServer());
  std::string stream;
  stream += dataLine("transform", "r1", 0);
  stream += R"({"op":"shutdown","id":"c1"})" "\n";
  stream += dataLine("transform", "never_read", 0);

  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);
  // r1 was queued behind the shutdown barrier: refused explicitly, not
  // served into a closing window. The line after shutdown is never read.
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"status\":\"rejected\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":\"r1\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"ack\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"event\":\"drain\""), std::string::npos);
}

TEST(Server, DeadlineExceededIsAnHonestError) {
  // One shard, slowed before the request arrives: a 10-simulated-second
  // budget cannot cover even one slow attempt, so the caller gets an
  // explicit deadline_exceeded error rather than a hung stream.
  Server server(smallServer(/*shards=*/1));
  std::string stream;
  stream += R"({"op":"slow_shard","id":"c1","shard":0})" "\n";
  stream += dataLine("transform", "r1", 0, /*deadline_s=*/10);

  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_EQ(stats.errors, 1u);
  bool sawError = false;
  for (const std::string& line : lines) {
    if (line.find("\"id\":\"r1\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(line.find("deadline_exceeded"), std::string::npos);
    sawError = true;
  }
  EXPECT_TRUE(sawError);
}

TEST(Server, InvalidLinesAreAnsweredAndCounted) {
  Server server(smallServer());
  std::string stream = "garbage\n";
  stream += dataLine("transform", "r1", 0);

  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_NE(lines.front().find("invalid_argument"), std::string::npos);
}

TEST(Server, DrainRecordMatchesTheStatsItSummarizes) {
  ServerOptions options = smallServer();
  options.queueCapacity = 1;
  options.arrivalBurst = 8;
  Server server(options);
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    stream += dataLine("transform", "r" + std::to_string(i), 0);
  }
  ServeStats stats;
  (void)runLines(server, stream, &stats);

  const std::string& drain = server.drainRecord();
  long long value = -1;
  ASSERT_TRUE(util::jsonIntField(drain, "ok", &value));
  EXPECT_EQ(value, static_cast<long long>(stats.ok));
  ASSERT_TRUE(util::jsonIntField(drain, "shed", &value));
  EXPECT_EQ(value, static_cast<long long>(stats.shed));
  ASSERT_TRUE(util::jsonIntField(drain, "requests", &value));
  EXPECT_EQ(value, static_cast<long long>(stats.requests));
  // The per-shard health report rides along.
  EXPECT_NE(drain.find("\"shards\":["), std::string::npos);
  EXPECT_NE(drain.find("\"availability_pct\""), std::string::npos);
}

// ------------------------------------------------------------- telemetry

TEST(Server, StatsOpReportsLiveStateInline) {
  Server server(smallServer(/*shards=*/2));
  std::string stream;
  stream += R"({"op":"stats","id":"s0"})" "\n";  // before any data
  stream += dataLine("generate", "r1", 0);
  stream += dataLine("transform", "r2", 0);
  // A control barrier forces the batch to process before s1 is read, so
  // the second snapshot observes completed work.
  stream += R"({"op":"slow_shard","id":"c1","shard":0,"slowed":0})" "\n";
  stream += R"({"op":"stats","id":"s1"})" "\n";

  ServeStats stats;
  const std::vector<std::string> lines = runLines(server, stream, &stats);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.controls, 3u);  // two stats snapshots + the barrier

  // The idle snapshot has served nothing: availability is undefined and
  // rendered "--", never a 0/0 NaN.
  ASSERT_FALSE(lines.empty());
  const std::string& idle = lines.front();
  EXPECT_NE(idle.find("\"id\":\"s0\""), std::string::npos);
  EXPECT_NE(idle.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(idle.find("\"availability_pct\":\"--\""), std::string::npos);
  EXPECT_NE(idle.find("\"latency\":{\"count\":0}"), std::string::npos);

  bool sawLive = false;
  for (const std::string& line : lines) {
    if (line.find("\"id\":\"s1\"") == std::string::npos) continue;
    sawLive = true;
    long long depth = -1;
    EXPECT_TRUE(util::jsonIntField(line, "queue_depth", &depth));
    EXPECT_GE(depth, 0);
    EXPECT_NE(line.find("\"queue_capacity\":64"), std::string::npos);
    EXPECT_NE(line.find("\"availability_pct\":100"), std::string::npos);
    EXPECT_NE(line.find("\"latency\":{\"count\":2"), std::string::npos);
    EXPECT_NE(line.find("\"queue\":{"), std::string::npos);
    EXPECT_NE(line.find("\"shards\":["), std::string::npos);
  }
  EXPECT_TRUE(sawLive);
}

TEST(Server, TimingEchoDecoratesWithoutPerturbingOutputs) {
  const std::string stream =
      dataLine("generate", "r1", 0) + dataLine("transform", "r2", 0);

  Server plain(smallServer());
  ServeStats plainStats;
  const std::vector<std::string> off = runLines(plain, stream, &plainStats);

  ServerOptions echoOptions = smallServer();
  echoOptions.timingEcho = true;
  Server echo(echoOptions);
  ServeStats echoStats;
  const std::vector<std::string> on = runLines(echo, stream, &echoStats);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {  // skip drain record
    EXPECT_EQ(off[i].find("\"timing\":{"), std::string::npos);
    EXPECT_NE(on[i].find("\"timing\":{"), std::string::npos);
    EXPECT_NE(on[i].find("\"retries\":"), std::string::npos);
    EXPECT_NE(on[i].find("\"shard\":"), std::string::npos);
    // Stripping the echo must recover the exact timing-off bytes: the
    // payload is untouched.
    const std::size_t cut = on[i].find(",\"timing\":{");
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(on[i].substr(0, cut) + "}", off[i]);
  }

  // Per-request sketches observed both runs identically.
  EXPECT_EQ(plain.latencySketch().toJson(), echo.latencySketch().toJson());
  EXPECT_EQ(plain.latencySketch().count(), 2u);
  EXPECT_EQ(plain.queueWaitSketch().count(), 2u);
}

TEST(Server, ServeReportReconstructsRequestLifecyclesFromTheLog) {
  const std::string path =
      ::testing::TempDir() + "serve_test_report_log.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  obs::EventLog::global().configure(path, obs::LogLevel::kInfo);

  Server server(smallServer(/*shards=*/2));
  std::string stream;
  stream += dataLine("generate", "g0", 0);
  stream += dataLine("generate", "g1", 1);
  stream += dataLine("transform", "t0", 0);
  ServeStats stats;
  (void)runLines(server, stream, &stats);
  obs::EventLog::global().configure("", obs::LogLevel::kInfo);
  ASSERT_EQ(stats.ok, 3u);

  const util::Result<std::string> log = util::readFile(path);
  ASSERT_TRUE(log.ok());
  const ServeReport report = ServeReport::fromLog(log.value());
  ASSERT_EQ(report.requests().size(), 3u);
  for (const RequestRecord& record : report.requests()) {
    EXPECT_TRUE(record.ok());
    EXPECT_GE(record.shard, 0);
    EXPECT_GE(record.endNs, record.startNs);
    EXPECT_GE(record.startNs, record.admitNs);
  }

  const std::vector<OpSlo> slo = report.sloTable();
  ASSERT_EQ(slo.size(), 2u);  // generate, transform — op-sorted
  EXPECT_EQ(slo[0].op, "generate");
  EXPECT_EQ(slo[0].requests, 2u);
  EXPECT_EQ(slo[1].op, "transform");
  EXPECT_DOUBLE_EQ(slo[0].availabilityPct(), 100.0);

  const std::string text = report.summaryText(2);
  EXPECT_NE(text.find("serve-report: 3 request(s) reconstructed"),
            std::string::npos);
  EXPECT_NE(text.find("slowest requests:"), std::string::npos);
  EXPECT_NE(text.find("slo table:"), std::string::npos);

  // A log with no serve records reconstructs an empty (non-fatal) report.
  EXPECT_TRUE(ServeReport::fromLog("{\"component\":\"bench\"}\n")
                  .requests()
                  .empty());
}

TEST(Server, AvailabilityDisplayGuardsTheZeroDenominator) {
  ServeStats idle;
  EXPECT_FALSE(idle.availabilityDefined());
  EXPECT_EQ(idle.availabilityDisplay(), "--");
  // The numeric accessor keeps its benign-idle contract for callers that
  // gate on thresholds.
  EXPECT_DOUBLE_EQ(idle.availabilityPct(), 100.0);

  ServeStats some;
  some.requests = 4;
  some.ok = 3;
  some.shed = 1;
  EXPECT_TRUE(some.availabilityDefined());
  EXPECT_EQ(some.availabilityDisplay(), "75.00");
}

TEST(ServerOptions, EnvOverridesFailClosed) {
  // The caller's values are put back at the end, so later tests in this
  // process see the environment they started with.
  const char* const names[] = {"SCA_SERVE_QUEUE", "SCA_SERVE_BATCH",
                               "SCA_SERVE_BURST", "SCA_SERVE_DEADLINE_S",
                               "SCA_SERVE_TIMING"};
  std::vector<std::optional<std::string>> saved;
  for (const char* name : names) {
    const char* value = std::getenv(name);
    saved.push_back(value ? std::optional<std::string>(value) : std::nullopt);
    ::unsetenv(name);
  }

  const ServerOptions defaults = ServerOptions::fromEnv();
  EXPECT_EQ(defaults.queueCapacity, 64u);
  EXPECT_EQ(defaults.batchSize, 16u);
  EXPECT_EQ(defaults.arrivalBurst, 16u);
  EXPECT_EQ(defaults.defaultDeadlineSeconds, 25);
  EXPECT_FALSE(defaults.timingEcho);

  // Each bound is inclusive, and the deadline and timing knobs accept 0.
  ::setenv("SCA_SERVE_QUEUE", "1048576", 1);
  ::setenv("SCA_SERVE_BATCH", "65536", 1);
  ::setenv("SCA_SERVE_BURST", "1", 1);
  ::setenv("SCA_SERVE_DEADLINE_S", "0", 1);
  ::setenv("SCA_SERVE_TIMING", "1", 1);
  const ServerOptions set = ServerOptions::fromEnv();
  EXPECT_EQ(set.queueCapacity, 1048576u);
  EXPECT_EQ(set.batchSize, 65536u);
  EXPECT_EQ(set.arrivalBurst, 1u);
  EXPECT_EQ(set.defaultDeadlineSeconds, 0);
  EXPECT_TRUE(set.timingEcho);

  ::setenv("SCA_SERVE_QUEUE", "", 1);  // empty still means unset
  ::setenv("SCA_SERVE_DEADLINE_S", "1048576", 1);
  ::setenv("SCA_SERVE_TIMING", "0", 1);
  const ServerOptions fresh = ServerOptions::fromEnv();
  EXPECT_EQ(fresh.queueCapacity, 64u);
  EXPECT_EQ(fresh.defaultDeadlineSeconds, 1048576);
  EXPECT_FALSE(fresh.timingEcho);
  for (const char* name : names) ::unsetenv(name);

  // A malformed or out-of-range value throws, naming the variable and its
  // value, instead of falling back to the default.
  const auto error = []() -> std::string {
    try {
      (void)ServerOptions::fromEnv();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"SCA_SERVE_QUEUE", "64x"},        {"SCA_SERVE_QUEUE", "-1"},
      {"SCA_SERVE_QUEUE", "0"},          {"SCA_SERVE_QUEUE", "1048577"},
      {"SCA_SERVE_BATCH", "16x"},        {"SCA_SERVE_BATCH", "-1"},
      {"SCA_SERVE_BATCH", "0"},          {"SCA_SERVE_BATCH", "65537"},
      {"SCA_SERVE_BURST", "16x"},        {"SCA_SERVE_BURST", "-1"},
      {"SCA_SERVE_BURST", "0"},          {"SCA_SERVE_BURST", "1048577"},
      {"SCA_SERVE_DEADLINE_S", "25x"},   {"SCA_SERVE_DEADLINE_S", "-1"},
      {"SCA_SERVE_DEADLINE_S", "1048577"},
      {"SCA_SERVE_TIMING", "1x"},        {"SCA_SERVE_TIMING", "-1"},
      {"SCA_SERVE_TIMING", "2"},
  };
  for (const auto& [name, value] : bad) {
    ::setenv(name, value, 1);
    EXPECT_NE(error().find(std::string(name) + "=" + value),
              std::string::npos)
        << name << "=" << value << ": " << error();
    ::unsetenv(name);
  }

  for (std::size_t i = 0; i < saved.size(); ++i) {
    if (saved[i]) ::setenv(names[i], saved[i]->c_str(), 1);
  }
}

}  // namespace
}  // namespace sca::serve
