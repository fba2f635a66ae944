#include "serve/server.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "corpus/challenges.hpp"
#include "llm/call_context.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca::serve {
namespace {

// All serving telemetry is runtime-tagged: shed counts, queue depth and
// batch counts depend on arrival patterns and the chaos schedule, never on
// the stable output bytes.
struct ServeCounters {
  obs::Counter requests = make("serve_requests");
  obs::Counter ok = make("serve_ok");
  obs::Counter errors = make("serve_errors");
  obs::Counter shed = make("serve_shed");
  obs::Counter rejected = make("serve_rejected");
  obs::Counter invalid = make("serve_invalid");
  obs::Counter controls = make("serve_controls");
  obs::Counter batches = make("serve_batches");
  obs::Gauge queueDepth = obs::MetricsRegistry::global().gauge(
      "serve_queue_depth", obs::GaugeKind::kMax);
  obs::Histogram simSeconds = obs::MetricsRegistry::global().histogram(
      "serve_request_sim_s", {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0},
      obs::Stability::kRuntime);

  static obs::Counter make(const char* name) {
    return obs::MetricsRegistry::global().counter(name,
                                                  obs::Stability::kRuntime);
  }
  static ServeCounters& get() {
    static ServeCounters instance;
    return instance;
  }
};

}  // namespace

ServerOptions ServerOptions::fromEnv() {
  ServerOptions options;
  options.queueCapacity =
      util::envSize("SCA_SERVE_QUEUE", options.queueCapacity, 1 << 20);
  options.batchSize =
      util::envSize("SCA_SERVE_BATCH", options.batchSize, 1 << 16);
  options.arrivalBurst =
      util::envSize("SCA_SERVE_BURST", options.arrivalBurst, 1 << 20);
  options.defaultDeadlineSeconds = static_cast<long long>(util::envSize(
      "SCA_SERVE_DEADLINE_S",
      static_cast<std::size_t>(options.defaultDeadlineSeconds), 1 << 20, 0));
  options.timingEcho =
      util::envSize("SCA_SERVE_TIMING", options.timingEcho ? 1 : 0, 1, 0) != 0;
  options.fleet = llm::FleetOptions::fromEnv();
  options.year = options.fleet.year;
  return options;
}

double ServeStats::availabilityPct() const noexcept {
  const std::uint64_t denied = errors + shed + rejected;
  const std::uint64_t total = ok + denied;
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(ok) / static_cast<double>(total);
}

std::string ServeStats::availabilityDisplay() const {
  if (!availabilityDefined()) return "--";
  return util::formatDouble(availabilityPct(), 2);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), fleet_(options_.fleet) {
  options_.queueCapacity = std::max<std::size_t>(1, options_.queueCapacity);
  options_.batchSize = std::max<std::size_t>(1, options_.batchSize);
  options_.arrivalBurst = std::max<std::size_t>(1, options_.arrivalBurst);
  challenges_ = corpus::challengesForYear(options_.year);
}

ServeStats Server::run(std::istream& in, std::ostream& out) {
  ServeCounters& counters = ServeCounters::get();
  bool shuttingDown = false;
  bool eof = false;

  while (!shuttingDown && !eof) {
    // --- admission phase -------------------------------------------------
    Request control;
    bool haveControl = false;
    std::string line;
    std::uint64_t phaseData = 0;
    std::uint64_t phaseShed = 0;
    for (std::size_t read = 0; read < options_.arrivalBurst; ++read) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (line.empty()) continue;
      Request request = parseRequest(line);
      if (request.op == Op::kInvalid) {
        ++stats_.invalid;
        counters.invalid.add();
        out << invalidResponse(request.id, request.error) << '\n';
        continue;
      }
      if (request.op == Op::kStats) {
        // Read-only, answered inline: a barrier would drain the queue
        // first and report a tautological depth of zero. Everything in
        // the snapshot is deterministic for a given stream position.
        ++stats_.controls;
        counters.controls.add();
        out << buildStatsResponse(request.id) << '\n';
        continue;
      }
      if (isControl(request.op)) {
        // Barrier: everything admitted so far is served against the
        // pre-control fleet; the rest of the burst waits in the stream.
        control = std::move(request);
        haveControl = true;
        break;
      }
      ++stats_.requests;
      counters.requests.add();
      ++phaseData;
      if (queue_.size() >= options_.queueCapacity) {
        ++stats_.shed;
        counters.shed.add();
        ++phaseShed;
        out << overloadedResponse(request.id) << '\n';
        continue;
      }
      Admitted admitted;
      admitted.depthAtAdmission = queue_.size();
      admitted.admitNs = obs::Tracer::global().nowNs();
      admitted.request = std::move(request);
      queueDepthSketch_.observe(
          static_cast<double>(admitted.depthAtAdmission));
      queue_.push_back(std::move(admitted));
    }
    counters.queueDepth.recordMax(static_cast<double>(queue_.size()));
    if (phaseData > 0) {
      shedRateSketch_.observe(100.0 * static_cast<double>(phaseShed) /
                              static_cast<double>(phaseData));
    }

    if (haveControl && control.op == Op::kShutdown) {
      // Graceful drain: nothing is mid-batch at a phase boundary, so
      // "finish in-flight work" is already true; what is merely QUEUED is
      // refused explicitly rather than served into a closing window.
      for (const Admitted& admitted : queue_) {
        ++stats_.rejected;
        counters.rejected.add();
        out << rejectedResponse(admitted.request.id) << '\n';
      }
      queue_.clear();
      ++stats_.controls;
      counters.controls.add();
      out << ackResponse(control.id, control.op) << '\n';
      shuttingDown = true;
      break;
    }

    // --- processing phase ------------------------------------------------
    while (!queue_.empty()) processBatch(out);

    if (haveControl) applyControl(control, out);
  }

  drainRecord_ = buildDrainRecord();
  out << drainRecord_ << '\n';
  out.flush();
  foldSketches();
  obs::logEvent(obs::LogLevel::kInfo, "serve", "drain",
                [&](util::JsonObjectBuilder& fields) {
                  fields.addUint("ok", stats_.ok);
                  fields.addUint("errors", stats_.errors);
                  fields.addUint("shed", stats_.shed);
                  fields.addUint("rejected", stats_.rejected);
                  fields.add("availability_pct",
                             stats_.availabilityDisplay());
                });
  return stats_;
}

void Server::processBatch(std::ostream& out) {
  ServeCounters& counters = ServeCounters::get();
  const std::size_t n = std::min(options_.batchSize, queue_.size());
  std::vector<Admitted> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  batchSizeSketch_.observe(static_cast<double>(n));
  const std::uint64_t batchIndex = stats_.batches;
  // Serve-loop heartbeat: batch boundaries keep the flight ring moving even
  // when individual requests neither log nor span (e.g. all-shed batches).
  obs::flight::note(obs::flight::EventKind::kPhase, "serve_batch", batchIndex);

  // Group by chain in first-appearance order: chains run in parallel, a
  // chain's requests run sequentially (they are one conversation), and the
  // event fold below walks the same order — so health evolution is a pure
  // function of the request sequence, at any thread count.
  std::vector<long long> chainOrder;
  std::map<long long, std::vector<std::size_t>> byChain;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t>& members = byChain[batch[i].request.chain];
    if (members.empty()) chainOrder.push_back(batch[i].request.chain);
    members.push_back(i);
  }
  for (long long chain : chainOrder) {
    std::unique_ptr<llm::ShardedClient>& client = chains_[chain];
    if (client == nullptr) {
      client = std::make_unique<llm::ShardedClient>(
          fleet_, util::combine64(util::hash64("serve-chain"),
                                  static_cast<std::uint64_t>(chain)));
    }
  }

  // Each index is written by exactly one task (indices are partitioned by
  // chain), so the shared vectors follow the parallelMap discipline.
  std::vector<std::string> responses(n);
  std::vector<Outcome> outcomes(n);
  (void)runtime::parallelMap<int>(chainOrder.size(), [&](std::size_t ci) {
    llm::ShardedClient& client = *chains_[chainOrder[ci]];
    for (std::size_t index : byChain[chainOrder[ci]]) {
      const Request& request = batch[index].request;
      Outcome& outcome = outcomes[index];
      // The span wraps the whole request so the lifecycle log line below
      // carries its id — SCA_LOG records join SCA_TRACE spans (PR 5).
      obs::Span span("serve_request", "serve");
      const std::uint64_t startNs = obs::Tracer::global().nowNs();
      outcome.queueWaitSeconds =
          static_cast<double>(startNs - batch[index].admitNs) / 1e9;
      const long long budget = request.deadlineSeconds > 0
                                   ? request.deadlineSeconds
                                   : options_.defaultDeadlineSeconds;
      llm::CallContext context =
          budget > 0 ? llm::CallContext::withDeadline(
                           static_cast<double>(budget))
                     : llm::CallContext{};
      context.telemetry = &outcome.telemetry;
      util::Result<std::string> result = [&]() -> util::Result<std::string> {
        if (request.op == Op::kGenerate) {
          if (request.challenge >=
              static_cast<long long>(challenges_.size())) {
            return util::Status(util::StatusCode::kInvalidArgument,
                                "challenge index out of range");
          }
          return client.tryGenerate(
              *challenges_[static_cast<std::size_t>(request.challenge)],
              context);
        }
        return client.tryTransform(request.source, context);
      }();
      outcome.simSeconds = context.chargedSeconds;
      if (result.ok()) {
        outcome.ok = true;
        outcome.code = "ok";
        responses[index] = okResponse(request.id, result.value(),
                                      client.servingShard(),
                                      context.chargedSeconds);
      } else {
        outcome.code = util::statusCodeName(result.status().code());
        responses[index] = errorResponse(
            request.id, util::statusCodeName(result.status().code()),
            result.status().message());
      }
      if (options_.timingEcho) {
        responses[index] = appendTimingField(
            std::move(responses[index]), timingJson(outcome, batch[index]));
      }
      const std::uint64_t endNs = obs::Tracer::global().nowNs();
      obs::logEvent(
          obs::LogLevel::kInfo, "serve", "request",
          [&](util::JsonObjectBuilder& fields) {
            fields.add("id", request.id);
            fields.add("op", opName(request.op));
            fields.addInt("chain", request.chain);
            fields.add("status", outcome.code);
            fields.addInt("shard", outcome.telemetry.shard);
            fields.addDouble("sim_s", outcome.simSeconds, 3);
            fields.addDouble("queue_wait_s", outcome.queueWaitSeconds, 6);
            fields.addUint("queue_depth", batch[index].depthAtAdmission);
            fields.addUint("batch", batchIndex);
            fields.addInt("attempts", outcome.telemetry.attempts);
            fields.addInt("retries", outcome.telemetry.retries);
            fields.addDouble("backoff_s", outcome.telemetry.backoffSeconds,
                             3);
            fields.addInt("deadline_stops",
                          outcome.telemetry.deadlineStops);
            fields.addInt("failovers", outcome.telemetry.failovers);
            fields.addInt("hedges", outcome.telemetry.hedges);
            fields.addInt("hedge_wins", outcome.telemetry.hedgeWins);
            fields.addInt("replayed_turns",
                          outcome.telemetry.replayedTurns);
            fields.addUint("admit_ns", batch[index].admitNs);
            fields.addUint("start_ns", startNs);
            fields.addUint("end_ns", endNs);
          });
    }
    return 0;
  });

  for (std::size_t i = 0; i < n; ++i) {
    out << responses[i] << '\n';
    counters.simSeconds.observe(outcomes[i].simSeconds);
    latencySketch_.observe(outcomes[i].simSeconds);
    queueWaitSketch_.observe(outcomes[i].queueWaitSeconds);
    if (outcomes[i].ok) {
      ++stats_.ok;
      counters.ok.add();
    } else {
      ++stats_.errors;
      counters.errors.add();
    }
  }
  // Health moves here, between batches, in chain first-appearance order.
  for (long long chain : chainOrder) {
    fleet_.fold(chains_[chain]->takeEvents());
  }
  ++stats_.batches;
  counters.batches.add();
}

void Server::applyControl(const Request& request, std::ostream& out) {
  ServeCounters& counters = ServeCounters::get();
  if (request.op == Op::kKillShard) {
    fleet_.killShard(static_cast<int>(request.shard));
  } else if (request.op == Op::kSlowShard) {
    fleet_.slowShard(static_cast<int>(request.shard), request.slowed);
  }
  ++stats_.controls;
  counters.controls.add();
  out << ackResponse(request.id, request.op) << '\n';
}

std::string Server::timingJson(const Outcome& outcome,
                               const Admitted& admitted) const {
  util::JsonObjectBuilder timing;
  timing.addDouble("sim_s", outcome.simSeconds, 3);
  timing.addDouble("queue_wait_s", outcome.queueWaitSeconds, 6);
  timing.addUint("queue_depth", admitted.depthAtAdmission);
  timing.addInt("attempts", outcome.telemetry.attempts);
  timing.addInt("retries", outcome.telemetry.retries);
  timing.addDouble("backoff_s", outcome.telemetry.backoffSeconds, 3);
  timing.addInt("deadline_stops", outcome.telemetry.deadlineStops);
  timing.addInt("failovers", outcome.telemetry.failovers);
  timing.addInt("hedges", outcome.telemetry.hedges);
  timing.addInt("hedge_wins", outcome.telemetry.hedgeWins);
  timing.addInt("replayed_turns", outcome.telemetry.replayedTurns);
  timing.addInt("shard", outcome.telemetry.shard);
  return timing.str();
}

std::string Server::buildStatsResponse(std::string_view id) const {
  util::JsonObjectBuilder out;
  out.add("id", id);
  out.add("status", "ok");
  out.add("op", "stats");
  out.addUint("queue_depth", queue_.size());
  out.addUint("queue_capacity", options_.queueCapacity);
  out.addUint("requests", stats_.requests);
  out.addUint("ok", stats_.ok);
  out.addUint("errors", stats_.errors);
  out.addUint("shed", stats_.shed);
  out.addUint("rejected", stats_.rejected);
  out.addUint("invalid", stats_.invalid);
  out.addUint("controls", stats_.controls);
  out.addUint("batches", stats_.batches);
  if (stats_.availabilityDefined()) {
    out.addDouble("availability_pct", stats_.availabilityPct(), 2);
  } else {
    out.add("availability_pct", "--");
  }
  // Latency is simulated seconds and queue depth is a pure function of the
  // stream, so the snapshot stays byte-identical across replays; the
  // wall-clock sketches (queue wait) are deliberately absent.
  out.addRaw("latency", latencySketch_.percentilesJson());
  out.addRaw("queue", queueDepthSketch_.percentilesJson());
  out.addRaw("shards", fleet_.healthJson());
  return out.str();
}

void Server::foldSketches() {
  obs::SketchRegistry& registry = obs::SketchRegistry::global();
  registry.merge("serve_latency_s", latencySketch_);
  registry.merge("serve_queue_wait_s", queueWaitSketch_);
  registry.merge("serve_queue_depth", queueDepthSketch_);
  registry.merge("serve_batch_size", batchSizeSketch_);
  registry.merge("serve_shed_rate_pct", shedRateSketch_);
}

std::string Server::buildDrainRecord() const {
  llm::ShardedClient::Stats conversations;
  for (const auto& [chain, client] : chains_) {
    conversations.failovers += client->stats().failovers;
    conversations.hedges += client->stats().hedges;
    conversations.hedgeWins += client->stats().hedgeWins;
    conversations.replayedTurns += client->stats().replayedTurns;
  }
  const llm::ShardSet::FleetStats fleet = fleet_.stats();

  util::JsonObjectBuilder out;
  out.add("event", "drain");
  out.addUint("requests", stats_.requests);
  out.addUint("ok", stats_.ok);
  out.addUint("errors", stats_.errors);
  out.addUint("shed", stats_.shed);
  out.addUint("rejected", stats_.rejected);
  out.addUint("invalid", stats_.invalid);
  out.addUint("controls", stats_.controls);
  out.addUint("batches", stats_.batches);
  if (stats_.availabilityDefined()) {
    out.addDouble("availability_pct", stats_.availabilityPct(), 2);
  } else {
    out.add("availability_pct", "--");
  }
  out.addUint("failovers", conversations.failovers);
  out.addUint("hedges", conversations.hedges);
  out.addUint("hedge_wins", conversations.hedgeWins);
  out.addUint("replayed_turns", conversations.replayedTurns);
  out.addUint("ejections", fleet.ejections);
  out.addUint("timeout_ejections", fleet.timeoutEjections);
  out.addUint("probes", fleet.probes);
  out.addUint("recoveries", fleet.recoveries);
  out.addRaw("shards", fleet_.healthJson());
  return out.str();
}

}  // namespace sca::serve
