// Sustained-load bench for the serving stack's telemetry layer.
//
// macro_serve proves the fleet survives chaos; this bench measures what
// the fleet sustains and proves the REQUEST-LEVEL telemetry (obs sketches,
// the in-band stats op, the timing echo) observes without participating:
//
//   steady   32 conversations x 8 turns, round-major, stats probes
//            embedded in the stream every other round. Measures wall
//            requests/sec and asserts every response matches the bare
//            single-client oracle byte for byte.
//   repeat   the steady pass re-run on a fresh server: the FULL response
//            byte stream (stats snapshots included) must be identical —
//            live percentile snapshots may not wobble across replays.
//   echo     the steady pass with timingEcho on: responses must carry a
//            "timing" object, and stripping it must NOT be needed for the
//            oracle check (outputs unchanged) — the echo decorates, never
//            perturbs.
//   surge    a 6-slot queue under full-round bursts: most load is shed,
//            so the shed-rate and queue-depth sketches see real pressure.
//
// Manifest: the serve sketches (serve_latency_s, serve_queue_wait_s,
// serve_queue_depth, serve_batch_size, serve_shed_rate_pct) land in the
// "sketches" section via SketchRegistry; requests/sec is recorded as the
// runtime gauge serve_requests_per_s. `sca_cli history check` gates the
// phase times like every other bench.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus/challenges.hpp"
#include "llm/synthetic_llm.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace sca;

constexpr int kChains = 32;
constexpr int kTurns = 8;
constexpr int kYear = 2017;
constexpr int kDeadlineSeconds = 240;

/// chain -> oracle transcript, exactly macro_serve's construction: the
/// serving fleet must reproduce the bare chain-seeded model byte for byte.
std::vector<std::vector<std::string>> buildOracle(
    const std::vector<const corpus::Challenge*>& challenges) {
  std::vector<std::vector<std::string>> oracle(kChains);
  for (int chain = 0; chain < kChains; ++chain) {
    llm::LlmOptions options;
    options.year = kYear;
    options.seed = util::combine64(util::hash64("serve-chain"),
                                   static_cast<std::uint64_t>(chain));
    llm::SyntheticLlm model(options);
    std::vector<std::string>& turns =
        oracle[static_cast<std::size_t>(chain)];
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

/// Round-major stream with an {"op":"stats"} probe before every second
/// round and one more at the end — the live snapshots ride the same stream
/// they observe.
std::string buildStream(const std::vector<std::vector<std::string>>& oracle,
                        std::map<std::string, RequestRef>* byId) {
  std::string stream;
  for (int turn = 0; turn < kTurns; ++turn) {
    if (turn % 2 == 0) {
      stream += util::JsonObjectBuilder()
                    .add("op", "stats")
                    .add("id", "stats_r" + std::to_string(turn))
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
  stream += util::JsonObjectBuilder()
                .add("op", "stats")
                .add("id", "stats_final")
                .str();
  stream += '\n';
  return stream;
}

struct PassResult {
  serve::ServeStats stats;
  std::string output;       // the full response byte stream
  std::string drain;
  std::string finalStats;   // the last stats-op response line
  std::size_t okMatched = 0;
  std::size_t okMismatched = 0;
  std::size_t timingFields = 0;  // ok/error lines carrying "timing"
  double wallSeconds = 0.0;
  double latencyP50 = 0.0;
  double latencyP99 = 0.0;
  std::uint64_t latencyCount = 0;
  std::uint64_t queueWaitCount = 0;
};

PassResult runPass(const char* phase, const std::string& stream,
                   serve::ServerOptions options,
                   const std::vector<std::vector<std::string>>& oracle,
                   const std::map<std::string, RequestRef>& byId,
                   bool oracleCheck = true) {
  obs::Span phaseSpan(phase, obs::kPhaseCategory);
  serve::Server server(std::move(options));
  std::istringstream in(stream);
  std::ostringstream out;

  PassResult result;
  const auto start = std::chrono::steady_clock::now();
  result.stats = server.run(in, out);
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.output = out.str();
  result.drain = server.drainRecord();
  result.latencyP50 = server.latencySketch().quantile(0.50);
  result.latencyP99 = server.latencySketch().quantile(0.99);
  result.latencyCount = server.latencySketch().count();
  result.queueWaitCount = server.queueWaitSketch().count();

  std::istringstream responses(result.output);
  std::string line;
  while (std::getline(responses, line)) {
    std::string op;
    if (util::jsonStringField(line, "op", &op) && op == "stats") {
      result.finalStats = line;
      continue;
    }
    if (line.find("\"timing\":{") != std::string::npos) {
      ++result.timingFields;
    }
    std::string status;
    if (!util::jsonStringField(line, "status", &status) || status != "ok" ||
        !oracleCheck) {
      // Shedding rewinds a chain's conversation state relative to the
      // oracle's, so passes that shed are not oracle-comparable.
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
    } else {
      ++result.okMismatched;
      std::cerr << "[macro_serve_load] " << phase << ": response " << id
                << " diverged from the oracle\n";
    }
  }
  return result;
}

std::string row(double value, int precision = 2) {
  return util::formatDouble(value, precision);
}

}  // namespace

int main() {
  bench::Session session("macro_serve_load");

  const std::vector<const corpus::Challenge*> challenges =
      corpus::challengesForYear(kYear);
  std::vector<std::vector<std::string>> oracle;
  {
    obs::Span phase("load_oracle", obs::kPhaseCategory);
    oracle = buildOracle(challenges);
  }

  std::map<std::string, RequestRef> byId;
  const std::string stream = buildStream(oracle, &byId);
  const std::size_t total = static_cast<std::size_t>(kChains) * kTurns;

  serve::ServerOptions base;
  base.queueCapacity = 256;
  base.batchSize = 16;
  base.arrivalBurst = 32;
  base.year = kYear;
  base.fleet.shards = 4;
  base.fleet.year = kYear;

  const PassResult steady =
      runPass("load_steady", stream, base, oracle, byId);
  const PassResult repeat =
      runPass("load_repeat", stream, base, oracle, byId);

  serve::ServerOptions echoOptions = base;
  echoOptions.timingEcho = true;
  const PassResult echo =
      runPass("load_echo", stream, echoOptions, oracle, byId);

  serve::ServerOptions surgeOptions = base;
  surgeOptions.queueCapacity = 6;
  surgeOptions.arrivalBurst = kChains;  // one full round per burst
  surgeOptions.fleet.faultRate = 0.10;  // retries charge simulated seconds
  const PassResult surge = runPass("load_surge", stream, surgeOptions,
                                   oracle, byId, /*oracleCheck=*/false);

  const double rps =
      static_cast<double>(steady.stats.requests) /
      std::max(steady.wallSeconds, 1e-9);
  obs::MetricsRegistry::global()
      .gauge("serve_requests_per_s", obs::GaugeKind::kMax)
      .recordMax(rps);
  obs::MetricsRegistry::global()
      .gauge("serve_surge_shed_pct", obs::GaugeKind::kMax)
      .recordMax(100.0 * static_cast<double>(surge.stats.shed) /
                 static_cast<double>(surge.stats.requests));

  util::TablePrinter table(
      "macro_serve_load: " + std::to_string(kChains) + " chains x " +
      std::to_string(kTurns) + " turns, shards=4");
  table.setHeader({"pass", "ok", "shed", "avail %", "p50 sim_s", "p99 sim_s",
                   "req/s"});
  const auto addRow = [&](const char* name, const PassResult& result,
                          double passRps) {
    table.addRow({name, std::to_string(result.stats.ok),
                  std::to_string(result.stats.shed),
                  result.stats.availabilityDisplay(),
                  row(result.latencyP50, 3), row(result.latencyP99, 3),
                  passRps > 0.0 ? row(passRps, 0) : "--"});
  };
  addRow("steady", steady, rps);
  addRow("repeat", repeat, 0.0);
  addRow("echo", echo, 0.0);
  addRow("surge", surge, 0.0);
  if (!bench::emit(table, "macro_serve_load")) return 1;

  bool ok = true;

  // Steady: full success, byte-identical to the oracle, and every request
  // observed by both the latency and queue-wait sketches.
  if (steady.stats.ok != total || steady.okMatched != total ||
      steady.okMismatched != 0) {
    std::cerr << "[macro_serve_load] steady pass: " << steady.okMatched
              << "/" << total << " oracle-identical (errors "
              << steady.stats.errors << ")\n";
    ok = false;
  }
  if (steady.latencyCount != total || steady.queueWaitCount != total) {
    std::cerr << "[macro_serve_load] sketches observed "
              << steady.latencyCount << "/" << steady.queueWaitCount
              << " of " << total << " requests\n";
    ok = false;
  }
  if (!(steady.latencyP50 <= steady.latencyP99)) {
    std::cerr << "[macro_serve_load] latency percentiles not monotone: p50="
              << steady.latencyP50 << " p99=" << steady.latencyP99 << "\n";
    ok = false;
  }
  if (steady.finalStats.find("\"op\":\"stats\"") == std::string::npos ||
      steady.finalStats.find("\"latency\":{") == std::string::npos ||
      steady.finalStats.find("\"queue\":{") == std::string::npos ||
      steady.finalStats.find("\"shards\":[") == std::string::npos) {
    std::cerr << "[macro_serve_load] stats op response incomplete: "
              << steady.finalStats << "\n";
    ok = false;
  }
  if (steady.timingFields != 0) {
    std::cerr << "[macro_serve_load] timing echo leaked into a pass that "
                 "did not enable it\n";
    ok = false;
  }

  // Repeat: the whole byte stream — data responses, stats snapshots, drain
  // record — must replay identically. This is the telemetry determinism
  // gate: sketches and counters may not perturb or wobble.
  if (repeat.output != steady.output) {
    std::cerr << "[macro_serve_load] repeat pass byte-diverged from the "
                 "steady pass (telemetry is not deterministic)\n";
    ok = false;
  }

  // Echo: every data response carries timing, and the payloads still match
  // the oracle — the echo is decoration, not perturbation.
  if (echo.timingFields != total) {
    std::cerr << "[macro_serve_load] timing echo on " << echo.timingFields
              << "/" << total << " responses\n";
    ok = false;
  }
  if (echo.okMatched != total || echo.okMismatched != 0) {
    std::cerr << "[macro_serve_load] echo pass diverged from the oracle\n";
    ok = false;
  }

  // Surge: the tiny queue must shed under full-round bursts, and the
  // pressure must be visible in the global sketch registry.
  if (surge.stats.shed == 0) {
    std::cerr << "[macro_serve_load] surge pass shed nothing\n";
    ok = false;
  }
  const std::map<std::string, obs::QuantileSketch> sketches =
      obs::SketchRegistry::global().snapshot();
  for (const char* name :
       {"serve_latency_s", "serve_queue_wait_s", "serve_queue_depth",
        "serve_batch_size", "serve_shed_rate_pct"}) {
    const auto it = sketches.find(name);
    if (it == sketches.end() || it->second.empty()) {
      std::cerr << "[macro_serve_load] sketch " << name
                << " missing or empty in the registry\n";
      ok = false;
    }
  }

  if (!ok) return 1;
  std::cout << "[macro_serve_load] " << total << " requests/pass at "
            << row(rps, 0) << " req/s steady; repeat pass byte-identical; "
            << echo.timingFields << " timing echoes; surge shed "
            << surge.stats.shed << " with shed-rate p99 "
            << row(obs::SketchRegistry::global()
                       .snapshot()
                       .at("serve_shed_rate_pct")
                       .quantile(0.99),
                   1)
            << "%\n";
  session.complete();
  return 0;
}
