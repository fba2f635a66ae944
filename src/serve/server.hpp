// Batch-synchronous JSONL attribution server over a sharded LLM fleet.
//
// `sca_cli serve` wraps this loop around stdin/stdout. The loop alternates
// two phases, and that alternation is the whole determinism story:
//
//   admission   read up to `arrivalBurst` lines. Invalid lines answer
//               immediately; `stats` requests answer inline (read-only
//               snapshot, no barrier); control lines (kill/slow/shutdown)
//               end the phase early (they are barriers); data requests
//               enter the bounded admission queue or — when it is full —
//               are SHED with an explicit "overloaded" response. Load is
//               never dropped silently and never buffered unboundedly.
//
//   processing  drain the queue in `batchSize` chunks. Each batch groups
//               requests by chain (first-appearance order), runs chains in
//               parallel (requests within a chain are a conversation:
//               sequential by nature), writes responses in request order,
//               and only then folds the recorded shard events into the
//               fleet — health moves between batches, never under them,
//               so the trajectory is identical at every SCA_THREADS.
//
// Deadlines: every data request carries a budget in SIMULATED seconds
// (deadline_s, default `defaultDeadlineSeconds`) which rides a
// llm::CallContext through retry backoff, injected slow-shard latency and
// failover. A request that runs out of budget answers "error" with code
// deadline_exceeded — degraded honestly, not hung.
//
// Request telemetry: every request also carries a llm::RequestTelemetry on
// its CallContext, filled in by the retry and fleet layers (attempts,
// retries, backoff, failovers, hedges, replays, serving shard). The server
// adds admission-side observations (queue wait, queue depth at admission)
// and folds them into per-run obs::QuantileSketch instances:
//
//   serve_latency_s       per-request simulated seconds (deterministic)
//   serve_queue_wait_s    wall seconds between admission and execution
//   serve_queue_depth     queue depth seen at each admission
//   serve_batch_size      requests per processing batch
//   serve_shed_rate_pct   per-admission-phase shed percentage
//
// All five merge into obs::SketchRegistry::global() at the end of run()
// (so they land in the manifest's "sketches" section), and each request's
// lifecycle is logged as a component=serve event=request record — inside
// the request's trace span, so SCA_LOG lines join SCA_TRACE output.
// Telemetry observes, it never participates: with `timingEcho` off (the
// default) response bytes are identical with telemetry on or off, across
// SCA_THREADS and chaos schedules. SCA_SERVE_TIMING=1 opts into a
// `"timing":{...}` object on each ok/error response; timing objects carry
// wall-clock fields and are explicitly NOT byte-stable.
//
// The in-band `{"op":"stats"}` request answers with a live snapshot:
//
//   {"id":"s1","status":"ok","op":"stats","queue_depth":N,
//    "queue_capacity":N,"requests":N,"ok":N,"errors":N,"shed":N,
//    "rejected":N,"invalid":N,"controls":N,"batches":N,
//    "availability_pct":99.88,           // "--" before any outcome
//    "latency":{"count":N,"p50":...,"p90":...,"p99":...,"p999":...},
//    "queue":{"count":N,"p50":...,...},  // queue depth at admission
//    "shards":[{"shard":0,"state":"closed",...},...]}
//
// Every field is deterministic for a given request stream (latency is
// simulated seconds; wall-clock sketches stay out), so streams containing
// stats probes replay byte-identically too.
//
// Shutdown is graceful in the batch-synchronous sense: the in-flight batch
// finishes (nothing is abandoned mid-conversation-turn), every request
// still queued answers "rejected", the shutdown is acked, and the final
// line is the drain record:
//
//   {"event":"drain","requests":N,"ok":N,"errors":N,"shed":N,
//    "rejected":N,"invalid":N,"controls":N,"batches":N,
//    "availability_pct":99.88,
//    "failovers":N,"hedges":N,"hedge_wins":N,"replayed_turns":N,
//    "ejections":N,"timeout_ejections":N,"probes":N,"recoveries":N,
//    "shards":[{"shard":0,"state":"closed",...},...]}
//
// EOF on the input behaves like shutdown with an empty queue: drain
// everything admitted, then write the drain record.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "llm/sharded_client.hpp"
#include "obs/sketch.hpp"
#include "serve/protocol.hpp"

namespace sca::corpus {
struct Challenge;
}  // namespace sca::corpus

namespace sca::serve {

struct ServerOptions {
  std::size_t queueCapacity = 64;  // admission queue bound; beyond it: shed
  std::size_t batchSize = 16;      // requests per processing chunk
  std::size_t arrivalBurst = 16;   // lines read per admission phase
  /// Default per-request budget in simulated seconds. Sits above the
  /// worst-case healthy retry ladder (~19.4s of backoff), so a healthy
  /// request always fits. On a slowed shard every attempt hangs up at
  /// FleetPolicy::attemptTimeoutSeconds (20) — callers with generous
  /// deadlines ride the full ladder to a failover; callers on this default
  /// blow the budget after the first slow attempt and answer
  /// "deadline_exceeded". Both paths feed the consecutive-timeout ejector.
  long long defaultDeadlineSeconds = 25;
  /// Echo a per-request "timing" object on ok/error responses. Off by
  /// default: timing objects carry wall-clock fields, so enabling this
  /// surrenders response byte-stability (and nothing else).
  bool timingEcho = false;
  int year = 2017;
  llm::FleetOptions fleet;

  /// SCA_SERVE_QUEUE (1..2^20) / SCA_SERVE_BATCH (1..2^16) /
  /// SCA_SERVE_BURST (1..2^20) / SCA_SERVE_DEADLINE_S (0..2^20) /
  /// SCA_SERVE_TIMING (0 or 1) over defaults; fleet from
  /// FleetOptions::fromEnv. A malformed or out-of-range value throws
  /// std::invalid_argument naming the variable.
  [[nodiscard]] static ServerOptions fromEnv();
};

struct ServeStats {
  std::uint64_t requests = 0;  // data requests admitted or shed
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;    // failed after admission (incl. deadline)
  std::uint64_t shed = 0;      // refused at admission (queue full)
  std::uint64_t rejected = 0;  // queued but refused at shutdown
  std::uint64_t invalid = 0;   // unparseable lines
  std::uint64_t controls = 0;  // control + stats ops applied
  std::uint64_t batches = 0;

  /// Whether any request reached an outcome — the availability ratio's
  /// denominator. False means availabilityPct() has nothing to divide.
  [[nodiscard]] bool availabilityDefined() const noexcept {
    return ok + errors + shed + rejected > 0;
  }
  /// ok / (ok + errors + shed + rejected), in percent; 100 when idle (the
  /// guarded zero-denominator case — displays render it as "--" via
  /// availabilityDisplay). Shed and rejected requests count against
  /// availability: refusing work is degradation, even when it is the
  /// correct degradation.
  [[nodiscard]] double availabilityPct() const noexcept;
  /// availabilityPct formatted to 2 decimals, or "--" when undefined —
  /// never NaN, never a made-up 100%.
  [[nodiscard]] std::string availabilityDisplay() const;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Runs the loop until shutdown or EOF on `in`. One response line per
  /// request line, drain record last. Not reentrant.
  [[nodiscard]] ServeStats run(std::istream& in, std::ostream& out);

  /// The fleet, exposed so tests and the chaos bench can inspect health
  /// (or pre-degrade shards) around a run.
  [[nodiscard]] llm::ShardSet& fleet() noexcept { return fleet_; }
  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  /// The drain record written by the last run() ("" before that).
  [[nodiscard]] const std::string& drainRecord() const noexcept {
    return drainRecord_;
  }
  /// Per-run request-latency sketch (simulated seconds) — the live view
  /// the `stats` op reports and benches assert on.
  [[nodiscard]] const obs::QuantileSketch& latencySketch() const noexcept {
    return latencySketch_;
  }
  [[nodiscard]] const obs::QuantileSketch& queueWaitSketch() const noexcept {
    return queueWaitSketch_;
  }

 private:
  /// A queued data request plus what admission saw: when it arrived (wall
  /// ns, tracer epoch) and how deep the queue was in front of it.
  struct Admitted {
    Request request;
    std::uint64_t admitNs = 0;
    std::uint64_t depthAtAdmission = 0;
  };
  struct Outcome {
    bool ok = false;
    double simSeconds = 0.0;
    double queueWaitSeconds = 0.0;
    std::string code;  // "ok" or the status code name
    llm::RequestTelemetry telemetry;
  };

  void processBatch(std::ostream& out);
  void applyControl(const Request& request, std::ostream& out);
  [[nodiscard]] std::string buildDrainRecord() const;
  [[nodiscard]] std::string buildStatsResponse(std::string_view id) const;
  [[nodiscard]] std::string timingJson(const Outcome& outcome,
                                       const Admitted& admitted) const;
  void foldSketches();

  ServerOptions options_;
  llm::ShardSet fleet_;
  std::vector<const corpus::Challenge*> challenges_;
  std::deque<Admitted> queue_;
  std::map<long long, std::unique_ptr<llm::ShardedClient>> chains_;
  ServeStats stats_;
  std::string drainRecord_;
  obs::QuantileSketch latencySketch_;
  obs::QuantileSketch queueWaitSketch_;
  obs::QuantileSketch queueDepthSketch_;
  obs::QuantileSketch batchSizeSketch_;
  obs::QuantileSketch shedRateSketch_;
};

}  // namespace sca::serve
