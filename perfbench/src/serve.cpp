// The serve workload: serve::Server::run over a JSONL stream of many
// conversations (a generate, then chained transforms), all piped in at
// start the way `sca_cli serve < file` is used. The fleet has 4 shards and
// injected faults, and the stream carries one slow_shard and one
// kill_shard control mid-stream. An op is one data request; its latency
// runs from the server reading the request line to the server writing its
// response line, both stamped by this file's stream wrappers.
//
// Every ok response must be byte-identical to a bare chain-seeded
// SyntheticLlm oracle, as bench/macro_serve checks.
#include <istream>
#include <map>
#include <ostream>
#include <streambuf>

#include "corpus/challenges.hpp"
#include "harness.hpp"
#include "llm/synthetic_llm.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace sca;

constexpr int kYear = 2017;
/// 1536 requests per pass: at least 15 beyond each pass's p99.
constexpr int kChains = 128;
constexpr int kTurns = 12;
constexpr int kShards = 4;
constexpr int kSlowShard = 1;  // slowed before turn kTurns / 3
constexpr int kKillShard = 2;  // killed before turn 2 * kTurns / 3
constexpr double kFaultRate = 0.05;
/// Simulated-seconds budget: a full retry ladder on the slowed shard plus
/// a failover fits, so no request runs out of budget.
constexpr int kDeadlineSeconds = 600;

/// Input side of the pipe: one line per underflow, stamped when the server
/// starts reading it.
class LineSource : public std::streambuf {
 public:
  explicit LineSource(const std::vector<std::string>& lines)
      : lines_(lines) {
    readAt_.reserve(lines.size());
  }
  [[nodiscard]] const std::vector<double>& readAt() const { return readAt_; }

 protected:
  int_type underflow() override {
    if (next_ == lines_.size()) return traits_type::eof();
    readAt_.push_back(wallSeconds());
    // The server only reads through the get area; the cast never leads to
    // a write.
    char* begin = const_cast<char*>(lines_[next_].data());
    setg(begin, begin, begin + lines_[next_].size());
    ++next_;
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<std::string>& lines_;  // each ends in '\n'
  std::size_t next_ = 0;
  std::vector<double> readAt_;
};

/// Output side: collects response lines, stamped when their newline is
/// written.
class LineSink : public std::streambuf {
 public:
  struct Line {
    std::string text;
    double at;
  };
  [[nodiscard]] const std::vector<Line>& lines() const { return lines_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      current_.push_back(c);
      return;
    }
    lines_.push_back(Line{std::move(current_), wallSeconds()});
    current_.clear();
  }

  std::string current_;
  std::vector<Line> lines_;
};

struct Conversations {
  std::vector<std::vector<std::string>> oracle;  // [chain][turn]
  std::vector<std::string> lines;                // request stream
  /// Line index -> (chain, turn) for data requests; controls are absent.
  std::map<std::size_t, std::pair<int, int>> requestAt;
  std::map<std::string, std::size_t> lineOfId;
};

/// The seed picks each conversation's challenge, and so every byte of
/// every request after it. Chain ids (which seed routing and fault
/// injection) and the shards the controls hit stay fixed: seeding them
/// would change how many conversations sit on the killed shard, and so
/// the failover replays behind p99_ms, from seed to seed. The oracle
/// replays each conversation on a bare chain-seeded model.
Conversations buildConversations(std::uint64_t seed) {
  util::Rng rng(util::combine64(util::hash64("perfbench-serve"), seed));
  const std::vector<const corpus::Challenge*> challenges =
      corpus::challengesForYear(kYear);
  Conversations out;
  std::vector<int> challengeOf;
  for (int chain = 0; chain < kChains; ++chain) {
    const int challenge = static_cast<int>(
        rng.uniformInt(0, static_cast<std::int64_t>(challenges.size()) - 1));
    challengeOf.push_back(challenge);
    llm::LlmOptions options;
    options.year = kYear;
    options.seed = util::combine64(util::hash64("serve-chain"),
                                   static_cast<std::uint64_t>(chain));
    llm::SyntheticLlm model(options);
    std::vector<std::string> turns;
    {
      Layer layer("llm.call", 1.0);
      turns.push_back(model.generate(*challenges[challenge]));
    }
    for (int t = 1; t < kTurns; ++t) {
      Layer layer("llm.call", 1.0);
      turns.push_back(model.transform(turns.back()));
    }
    out.oracle.push_back(std::move(turns));
  }

  const auto control = [&](const char* op, const char* id, int shard) {
    out.lines.push_back(util::JsonObjectBuilder()
                            .add("op", op)
                            .add("id", id)
                            .addInt("shard", shard)
                            .str() +
                        "\n");
  };
  for (int turn = 0; turn < kTurns; ++turn) {
    if (turn == kTurns / 3) control("slow_shard", "ctl_slow", kSlowShard);
    if (turn == 2 * kTurns / 3) control("kill_shard", "ctl_kill", kKillShard);
    for (int c = 0; c < kChains; ++c) {
      const std::string id =
          "c" + std::to_string(c) + "t" + std::to_string(turn);
      util::JsonObjectBuilder line;
      line.add("op", turn == 0 ? "generate" : "transform")
          .add("id", id)
          .addInt("chain", c);
      if (turn == 0) {
        line.addInt("challenge", challengeOf[c]);
      } else {
        line.add("source", out.oracle[c][turn - 1]);
      }
      line.addInt("deadline_s", kDeadlineSeconds);
      out.requestAt[out.lines.size()] = {c, turn};
      out.lineOfId[id] = out.lines.size();
      out.lines.push_back(line.str() + "\n");
    }
  }
  return out;
}

serve::ServerOptions serverOptions() {
  serve::ServerOptions options;  // not fromEnv: the fleet is fixed here
  options.queueCapacity = 256;   // >= arrivalBurst, so nothing is shed
  options.batchSize = 16;
  options.arrivalBurst = 32;
  options.year = kYear;
  options.fleet.shards = kShards;
  options.fleet.faultRate = kFaultRate;
  options.fleet.year = kYear;
  return options;
}

struct PassOutcome {
  serve::ServeStats stats;
  std::string drain;
  double queueWaitP50 = 0.0;
  double queueWaitP99 = 0.0;
};

/// One Server::run over the whole stream. Checks every data request got
/// an ok response equal to the oracle; appends each request's latency.
PassOutcome servePass(const Conversations& conv, Report& report,
                      std::vector<double>* latencies) {
  LineSource source(conv.lines);
  LineSink sink;
  std::istream in(&source);
  std::ostream out(&sink);
  serve::Server server(serverOptions());
  PassOutcome outcome;
  outcome.stats = server.run(in, out);
  outcome.drain = server.drainRecord();
  outcome.queueWaitP50 = server.queueWaitSketch().quantile(0.50);
  outcome.queueWaitP99 = server.queueWaitSketch().quantile(0.99);

  std::size_t matched = 0, mismatched = 0;
  for (const LineSink::Line& line : sink.lines()) {
    std::string id, status, output;
    if (!util::jsonStringField(line.text, "id", &id)) continue;
    const auto at = conv.lineOfId.find(id);
    if (at == conv.lineOfId.end()) continue;  // control ack
    const auto [chain, turn] = conv.requestAt.at(at->second);
    if (!util::jsonStringField(line.text, "status", &status) ||
        status != "ok" ||
        !util::jsonStringField(line.text, "output", &output) ||
        output != conv.oracle[chain][turn]) {
      report.fail(1, "request " + id + ": " + line.text.substr(0, 160));
      ++mismatched;
      continue;
    }
    ++matched;
    latencies->push_back(line.at - source.readAt().at(at->second));
  }
  const std::size_t requests = conv.requestAt.size();
  report.attempted += requests;
  if (matched + mismatched < requests) {
    report.fail(requests - matched - mismatched,
                "requests without a response");
  }
  return outcome;
}

Report timedRun(const Options& options) {
  Report report;
  Conversations conv;
  const double setupSeconds =
      medianSetup([&] { conv = buildConversations(options.seed); });
  const Passes passes =
      timePasses(options.seconds, [&](std::vector<double>* latencies) {
        (void)servePass(conv, report, latencies);
      });
  report.endToEnd(setupSeconds, passes, conv.requestAt.size());
  return report;
}

Report tracedRun(const Options& options) {
  Report report;
  obs::Tracer& tracer = obs::Tracer::global();
  resetTrace();
  tracer.setEnabled(true);
  const std::uint64_t setupNs = traceNow();
  const Conversations conv = buildConversations(options.seed);
  const std::uint64_t setupEndNs = traceNow();
  tracer.setEnabled(false);

  std::vector<double> latencies;
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const std::uint64_t retriesBefore = metrics.counterValue("llm_retries");
  const Stopwatch untraced;
  const PassOutcome pass = servePass(conv, report, &latencies);
  const double untracedWall = untraced.wall();
  const double untracedCpu = untraced.cpu();
  const std::uint64_t retries =
      metrics.counterValue("llm_retries") - retriesBefore;

  tracer.setEnabled(true);
  const std::uint64_t passNs = traceNow();
  const Stopwatch traced;
  {
    Layer layer("serve.run", static_cast<double>(conv.requestAt.size()));
    (void)servePass(conv, report, &latencies);
  }
  const double tracedWall = traced.wall();
  const std::uint64_t endNs = traceNow();
  tracer.setEnabled(false);

  LayerTable rows = layerTable("serve set-up (oracle)", setupNs, setupEndNs);
  rows.merge(layerTable("serve pass", passNs, endNs));
  flushTrace();
  addLayerMetrics(report, rows);

  const auto drainField = [&](const char* field) {
    long long value = 0;
    (void)util::jsonIntField(pass.drain, field, &value);
    return static_cast<double>(value);
  };
  const double ok = static_cast<double>(pass.stats.ok);
  report.metric("llm.retries", static_cast<double>(retries), "count");
  report.metric("llm.failovers", drainField("failovers"), "count");
  report.metric("llm.replayed_turns", drainField("replayed_turns"), "count");
  report.metric("llm.calls_per_ok",
                ok > 0 ? (ok + static_cast<double>(retries) +
                          drainField("replayed_turns") + drainField("hedges")) /
                             ok
                       : 0.0,
                "ratio");
  report.metric("serve.queue_wait_ms_p50", 1e3 * pass.queueWaitP50, "ms");
  report.metric("serve.queue_wait_ms_p99", 1e3 * pass.queueWaitP99, "ms");
  const double batches = static_cast<double>(pass.stats.batches);
  report.metric("serve.batches", batches, "count");
  report.metric("serve.batch_mean",
                batches > 0 ? static_cast<double>(pass.stats.requests) / batches
                            : 0.0,
                "count");
  report.metric("runtime.cpu_util",
                untracedCpu / (untracedWall * static_cast<double>(threadCount())),
                "ratio");
  report.metric("obs.trace_overhead_pct",
                100.0 * (tracedWall - untracedWall) / untracedWall, "%");
  return report;
}

}  // namespace

Report runServe(const Options& options) {
  return options.trace ? tracedRun(options) : timedRun(options);
}

}  // namespace perfbench
