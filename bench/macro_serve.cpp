// Chaos bench for the sharded serving stack (src/serve/ + ShardedClient).
//
// Four passes over the same 64-conversation, 12-turn request stream:
//
//   oracle     every conversation replayed on a bare chain-seeded
//              SyntheticLlm — the single-client path, and the byte truth
//              the serving fleet must reproduce,
//   healthy    4 shards, no faults: every request must succeed and match
//              the oracle byte for byte,
//   chaos      faults on (SCA_FAULT_RATE, default 0.15), one shard slowed
//              and one shard killed mid-stream via control lines in the
//              request stream itself,
//   overload   tiny admission queue under a full-round burst: most of the
//              load must be SHED with explicit "overloaded" responses
//              while the admitted conversations stay byte-perfect.
//
// SCA_SHARDS (default 4; fewer than 4 run as 4) and SCA_FAULT_RATE go
// through util::envSize and util::envDouble: a malformed value exits 2
// before any pass runs.
//
// Hard assertions (exit 1):
//   * every successful response, in EVERY pass, is byte-identical to the
//     oracle — chaos may cost availability, never correctness;
//   * chaos availability >= 99% with failovers > 0 and at least one
//     timeout ejection (the slowed shard must actually be ejected);
//   * the drain record agrees with the server's own counters — degradation
//     is recorded honestly;
//   * overload sheds without corrupting the conversations it admits.
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus/challenges.hpp"
#include "llm/sharded_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace sca;

constexpr int kChains = 64;
constexpr int kTurns = 12;
constexpr int kSlowRound = 4;  // slow_shard control lands before this round
constexpr int kKillRound = 8;  // kill_shard control lands before this round
constexpr int kYear = 2017;

/// chain -> its oracle transcript (turn 0 = generate, then transforms of
/// the previous oracle output: exactly the conversation the serving fleet
/// is asked to hold).
std::vector<std::vector<std::string>> buildOracle(
    const std::vector<const corpus::Challenge*>& challenges) {
  std::vector<std::vector<std::string>> oracle(kChains);
  for (int chain = 0; chain < kChains; ++chain) {
    llm::LlmOptions options;
    options.year = kYear;
    options.seed = util::combine64(util::hash64("serve-chain"),
                                   static_cast<std::uint64_t>(chain));
    llm::SyntheticLlm model(options);
    std::vector<std::string>& turns = oracle[static_cast<std::size_t>(chain)];
    turns.reserve(kTurns);
    turns.push_back(model.generate(
        *challenges[static_cast<std::size_t>(chain) % challenges.size()]));
    for (int turn = 1; turn < kTurns; ++turn) {
      turns.push_back(model.transform(turns.back()));
    }
  }
  return oracle;
}

struct RequestRef {
  int chain = 0;
  int turn = 0;
};

/// Per-request budget in simulated seconds. Must cover one full retry
/// ladder on a slowed shard (6 attempts hanging up at the 20 s attempt
/// timeout plus ~15 s of backoff) with room to fail over and be served
/// elsewhere — that is the availability story: a slow shard costs latency,
/// which the deadline can afford, instead of costing the request.
constexpr int kDeadlineSeconds = 240;

/// Round-major JSONL stream: all chains' turn r before any turn r+1, so
/// every batch mixes conversations. Transform inputs are the ORACLE
/// outputs — with the canonical-conversation design, a chain whose turn
/// failed still advances, so later successes must equal the oracle.
std::string buildStream(const std::vector<std::vector<std::string>>& oracle,
                        bool chaosControls, int slowShard, int killShard,
                        std::map<std::string, RequestRef>* byId) {
  std::string stream;
  for (int turn = 0; turn < kTurns; ++turn) {
    if (chaosControls && turn == kSlowRound) {
      stream += util::JsonObjectBuilder()
                    .add("op", "slow_shard")
                    .add("id", "ctl_slow")
                    .addInt("shard", slowShard)
                    .str();
      stream += '\n';
    }
    if (chaosControls && turn == kKillRound) {
      stream += util::JsonObjectBuilder()
                    .add("op", "kill_shard")
                    .add("id", "ctl_kill")
                    .addInt("shard", killShard)
                    .str();
      stream += '\n';
    }
    for (int chain = 0; chain < kChains; ++chain) {
      const std::string id =
          "c" + std::to_string(chain) + "t" + std::to_string(turn);
      (*byId)[id] = RequestRef{chain, turn};
      util::JsonObjectBuilder line;
      if (turn == 0) {
        line.add("op", "generate")
            .add("id", id)
            .addInt("chain", chain)
            .addInt("challenge", chain % 8)
            .addInt("deadline_s", kDeadlineSeconds);
      } else {
        line.add("op", "transform")
            .add("id", id)
            .addInt("chain", chain)
            .add("source",
                 oracle[static_cast<std::size_t>(chain)]
                       [static_cast<std::size_t>(turn) - 1])
            .addInt("deadline_s", kDeadlineSeconds);
      }
      stream += line.str();
      stream += '\n';
    }
  }
  return stream;
}

struct PassResult {
  serve::ServeStats stats;
  llm::ShardSet::FleetStats fleet;
  std::string drain;
  std::size_t okMatched = 0;
  std::size_t okMismatched = 0;
  std::uint64_t okDigest = util::hash64("macro_serve");
};

PassResult runPass(const char* phase, const std::string& stream,
                   serve::ServerOptions options,
                   const std::vector<std::vector<std::string>>& oracle,
                   const std::map<std::string, RequestRef>& byId) {
  obs::Span phaseSpan(phase, obs::kPhaseCategory);
  serve::Server server(std::move(options));
  std::istringstream in(stream);
  std::ostringstream out;

  PassResult result;
  result.stats = server.run(in, out);
  result.fleet = server.fleet().stats();
  result.drain = server.drainRecord();

  std::istringstream responses(out.str());
  std::string line;
  while (std::getline(responses, line)) {
    std::string status;
    if (!util::jsonStringField(line, "status", &status) || status != "ok") {
      continue;
    }
    std::string id;
    std::string output;
    if (!util::jsonStringField(line, "id", &id) ||
        !util::jsonStringField(line, "output", &output)) {
      ++result.okMismatched;
      continue;
    }
    const auto ref = byId.find(id);
    const bool matched =
        ref != byId.end() &&
        output == oracle[static_cast<std::size_t>(ref->second.chain)]
                        [static_cast<std::size_t>(ref->second.turn)];
    if (matched) {
      ++result.okMatched;
      result.okDigest = util::combine64(
          result.okDigest,
          util::combine64(util::hash64(id), util::hash64(output)));
    } else {
      ++result.okMismatched;
      std::cerr << "[macro_serve] " << phase << ": response " << id
                << " diverged from the oracle\n";
    }
  }
  return result;
}

/// The drain record must agree with the server's own counters: the final
/// line is how an operator learns what degraded, so it lying is a bug.
bool drainHonest(const PassResult& result) {
  const struct {
    const char* field;
    long long expected;
  } checks[] = {
      {"ok", static_cast<long long>(result.stats.ok)},
      {"errors", static_cast<long long>(result.stats.errors)},
      {"shed", static_cast<long long>(result.stats.shed)},
      {"rejected", static_cast<long long>(result.stats.rejected)},
      {"ejections", static_cast<long long>(result.fleet.ejections)},
      {"timeout_ejections",
       static_cast<long long>(result.fleet.timeoutEjections)},
  };
  for (const auto& check : checks) {
    long long actual = -1;
    if (!util::jsonIntField(result.drain, check.field, &actual) ||
        actual != check.expected) {
      std::cerr << "[macro_serve] drain record dishonest: " << check.field
                << "=" << actual << ", server counted " << check.expected
                << "\n";
      return false;
    }
  }
  return true;
}

std::string row(double value) { return util::formatDouble(value, 2); }

}  // namespace

int main() {
  int shards = 0;
  double faultRate = 0.0;
  try {
    shards = static_cast<int>(util::envSize("SCA_SHARDS", 4, llm::kMaxShards));
    faultRate = util::envDouble("SCA_FAULT_RATE", 0.15);
  } catch (const std::invalid_argument& e) {
    std::cerr << "macro_serve: " << e.what() << "\n";
    return 2;
  }
  bench::Session session("macro_serve");

  if (shards < 4) {
    std::cout << "[macro_serve] SCA_SHARDS=" << shards
              << " too small for the chaos schedule; using 4\n";
    shards = 4;
  }
  const int slowShard = 1 % shards;
  const int killShard = 2 % shards;

  const std::vector<const corpus::Challenge*> challenges =
      corpus::challengesForYear(kYear);
  std::vector<std::vector<std::string>> oracle;
  {
    obs::Span phase("serve_oracle", obs::kPhaseCategory);
    oracle = buildOracle(challenges);
  }

  std::map<std::string, RequestRef> byId;
  const std::string calmStream =
      buildStream(oracle, /*chaosControls=*/false, 0, 0, &byId);
  const std::string chaosStream =
      buildStream(oracle, /*chaosControls=*/true, slowShard, killShard,
                  &byId);

  serve::ServerOptions base;
  base.queueCapacity = 256;
  base.batchSize = 16;
  base.arrivalBurst = 32;
  base.year = kYear;
  base.fleet.shards = shards;
  base.fleet.year = kYear;

  serve::ServerOptions healthyOptions = base;
  const PassResult healthy =
      runPass("serve_healthy", calmStream, healthyOptions, oracle, byId);

  serve::ServerOptions chaosOptions = base;
  chaosOptions.fleet.faultRate = faultRate;
  // Hedge requests whose retry ladder already charged a backoff step: the
  // first retry delay is baseDelaySeconds (0.5s) +/- jitter, so 0.3s
  // catches every request that faulted at least once while never firing on
  // a clean first attempt. This keeps the hedge path (and its manifest
  // counters) exercised under chaos without touching the healthy pass.
  chaosOptions.fleet.policy.hedgeAfterSeconds = 0.3;
  const PassResult chaos =
      runPass("serve_chaos", chaosStream, chaosOptions, oracle, byId);

  serve::ServerOptions overloadOptions = base;
  overloadOptions.queueCapacity = 4;
  overloadOptions.arrivalBurst = kChains;  // one full round per burst
  const PassResult overload =
      runPass("serve_overload", calmStream, overloadOptions, oracle, byId);

  util::TablePrinter table(
      "macro_serve: " + std::to_string(kChains) + " chains x " +
      std::to_string(kTurns) + " turns, shards=" + std::to_string(shards) +
      ", fault_rate=" + util::formatDouble(faultRate, 2));
  table.setHeader({"pass", "ok", "errors", "shed", "avail %", "failovers",
                   "ejections", "ok digest"});
  const auto addRow = [&](const char* name, const PassResult& result) {
    long long failovers = 0;
    (void)util::jsonIntField(result.drain, "failovers", &failovers);
    table.addRow({name, std::to_string(result.stats.ok),
                  std::to_string(result.stats.errors),
                  std::to_string(result.stats.shed),
                  row(result.stats.availabilityPct()),
                  std::to_string(failovers),
                  std::to_string(result.fleet.ejections),
                  util::toHex64(result.okDigest)});
  };
  addRow("healthy", healthy);
  addRow("chaos", chaos);
  addRow("overload", overload);
  if (!bench::emit(table, "macro_serve")) return 1;

  bool ok = true;
  const std::size_t total = static_cast<std::size_t>(kChains) * kTurns;

  // Healthy: nothing may fail, every byte must match the oracle — which IS
  // the single-client path, so this is also the fleet-vs-single equality.
  if (healthy.stats.ok != total || healthy.okMatched != total ||
      healthy.okMismatched != 0) {
    std::cerr << "[macro_serve] healthy pass: " << healthy.okMatched << "/"
              << total << " oracle-identical responses (errors "
              << healthy.stats.errors << ", mismatches "
              << healthy.okMismatched << ")\n";
    ok = false;
  }

  // Chaos: successes must stay byte-identical; availability >= 99%; the
  // kill must force failovers and the slowed shard must be ejected on the
  // timeout path.
  if (chaos.okMismatched != 0) {
    std::cerr << "[macro_serve] chaos pass: " << chaos.okMismatched
              << " successful response(s) diverged from the oracle\n";
    ok = false;
  }
  if (chaos.stats.availabilityPct() < 99.0) {
    std::cerr << "[macro_serve] chaos availability "
              << row(chaos.stats.availabilityPct())
              << "% below the 99% floor\n";
    ok = false;
  }
  long long chaosFailovers = 0;
  (void)util::jsonIntField(chaos.drain, "failovers", &chaosFailovers);
  if (chaosFailovers <= 0) {
    std::cerr << "[macro_serve] chaos pass recorded no failovers despite a "
                 "killed shard\n";
    ok = false;
  }
  if (chaos.fleet.timeoutEjections < 1) {
    std::cerr << "[macro_serve] slowed shard was never ejected on the "
                 "timeout path\n";
    ok = false;
  }
  long long chaosHedges = 0;
  (void)util::jsonIntField(chaos.drain, "hedges", &chaosHedges);
  if (chaosHedges < 1) {
    std::cerr << "[macro_serve] chaos pass issued no hedges despite the "
                 "0.3s hedge threshold\n";
    ok = false;
  }
  if (!drainHonest(healthy) || !drainHonest(chaos) || !drainHonest(overload)) {
    ok = false;
  }

  // Overload: the tiny queue must shed most of each burst, and what it
  // admits (the same chains every round) must stay byte-perfect.
  if (overload.stats.shed == 0) {
    std::cerr << "[macro_serve] overload pass shed nothing\n";
    ok = false;
  }
  if (overload.okMismatched != 0 || overload.stats.ok == 0) {
    std::cerr << "[macro_serve] overload pass: " << overload.stats.ok
              << " ok, " << overload.okMismatched << " mismatched\n";
    ok = false;
  }

  if (!ok) return 1;
  std::cout << "[macro_serve] all successful responses oracle-identical; "
               "chaos availability "
            << row(chaos.stats.availabilityPct()) << "% with "
            << chaosFailovers << " failover(s), " << chaosHedges
            << " hedge(s), " << chaos.fleet.timeoutEjections
            << " timeout ejection(s)\n";
  session.complete();
  return 0;
}
