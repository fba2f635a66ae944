// Sharded LLM fleet: N independent backend stacks behind one LlmClient.
//
// The paper's pipeline is a single conversation stream per chain; a
// production attribution service fronts a FLEET of backends that fail
// independently (one region times out, one instance is drained, one is
// merely slow). This layer generalizes the PR-2 single-client resilience
// stack to that world without giving up a single determinism invariant:
//
//   ShardSet        fleet-wide state: per-shard health (Closed / Open /
//                   HalfOpen, the circuit-breaker vocabulary lifted to the
//                   fleet level), consecutive-timeout ejection, chaos
//                   hooks (killShard / slowShard), and the fold() that
//                   advances health from a deferred event log.
//
//   ShardedClient   one per conversation (chain). Routes the conversation
//                   to its home shard (chainSeed % N), builds that shard's
//                   stack (ResilientClient -> FaultInjectingClient ->
//                   SyntheticLlm), and on a final failure fails over to
//                   the next eligible shard.
//
// Determinism rules (DESIGN §2.7):
//
//   * The MODEL seed is the chain seed alone — never the shard index — so
//     a completion that succeeds is byte-identical no matter which shard
//     served it. Only transport-layer seeds (fault schedule, retry jitter)
//     are shard-salted: shards fail independently, but they all hold the
//     same model.
//
//   * The model is conversation-stateful, so failover cannot just re-issue
//     the last request elsewhere: the target shard's fresh stack first
//     REPLAYS the recorded conversation prefix against its (bare) model,
//     and only then serves the live request. Replay bypasses fault
//     injection: it is state reconstruction of completions that already
//     happened, not new API traffic.
//
//   * Health state never moves while a batch of requests is in flight.
//     Requests route against a snapshot(); every routing/serving event is
//     recorded to a per-conversation event log and folded into the
//     ShardSet sequentially, in request order, between batches — so the
//     health trajectory is a pure function of the request sequence, at any
//     SCA_THREADS.
//
// Degradation matrix (what each failure becomes):
//
//   shard killed            routed around; conversations re-home (failover)
//   breaker/budget final    failover to next eligible shard
//   consecutive failures    shard ejected (Open), cooldown in routed-around
//                           requests, then HalfOpen probe
//   consecutive timeouts    same ejection, on its own (lower) threshold —
//                           a slow shard is ejected before a flapping one
//   deadline exceeded       NO failover (the request has no time left);
//                           surfaces to the caller, who counts it against
//                           availability
//   every shard ineligible  kUnavailable without touching any backend
//
// A failed turn still advances the CANONICAL conversation: the turn is
// recorded in the history and the (now untrustworthy) shard stack is
// dropped, so the next rebuild replays the failed turn's completion into
// existence on the bare model. In the simulated world the model always
// produces the completion — only DELIVERY failed — which is what makes a
// later success byte-identical to the same request in a run where nothing
// failed: state depends on the request stream alone, never on the chaos
// schedule.
//
// Hedging (off by default): when a successful call charged more simulated
// latency than FleetPolicy::hedgeAfterSeconds, the same turn is raced on
// the next eligible shard; the faster shard keeps the conversation. Bytes
// cannot diverge — both shards hold the same model — so hedging trades
// duplicate work for tail latency, exactly like production request
// hedging.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "llm/fault_injection.hpp"
#include "llm/resilient_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "obs/metrics.hpp"

namespace sca::llm {

/// Fleet-level health, deliberately the breaker's vocabulary: Closed
/// serves, Open is ejected (routed around), HalfOpen admits probes.
enum class ShardState { Closed, Open, HalfOpen };

[[nodiscard]] std::string_view shardStateName(ShardState state) noexcept;

struct FleetPolicy {
  int failureEjectThreshold = 3;   // consecutive final failures -> Open
  int timeoutEjectThreshold = 2;   // consecutive timeout finals -> Open
  int cooldownRequests = 8;        // routed-around requests before HalfOpen
  double hedgeAfterSeconds = 0.0;  // hedge when a call charged more; 0 = off
  double slowShardLatencySeconds = 30.0;  // injected per call on slow shards
  /// Per-attempt hang-up for slowed shards (FaultOptions::
  /// attemptTimeoutSeconds). Must sit BELOW slowShardLatencySeconds for a
  /// slowed shard's attempts to surface as timeouts (feeding timeout
  /// ejection) instead of as slow successes that merely degrade latency.
  double attemptTimeoutSeconds = 20.0;
};

/// The largest fleet SCA_SHARDS may ask for.
inline constexpr std::size_t kMaxShards = 64;

struct FleetOptions {
  int shards = 1;
  /// Per-shard fault injection (FaultOptions::scaled mix, shard-salted
  /// seed). 0 disables the fault/retry layers entirely — each shard then
  /// drives the bare model, byte-for-byte the single-client path.
  double faultRate = 0.0;
  int year = 2017;
  FleetPolicy policy;

  /// SCA_SHARDS (integer in 1..kMaxShards), SCA_FAULT_RATE (number >= 0)
  /// and SCA_HEDGE_S (seconds > 0, enables hedging) over defaults, parsed
  /// by util::envSize and util::envDouble. A malformed or out-of-range
  /// value throws std::invalid_argument naming the variable.
  [[nodiscard]] static FleetOptions fromEnv();
};

/// Immutable routing view of one shard, copied out under the fleet lock.
struct ShardSnapshot {
  ShardState state = ShardState::Closed;
  bool killed = false;
  bool slowed = false;
};

/// One routing/serving event, recorded by ShardedClient in request order
/// and folded into the ShardSet between batches.
struct ShardEvent {
  enum class Kind {
    Skipped,  // Open shard routed around (advances its cooldown)
    Success,  // final success served by this shard
    Failure,  // final non-timeout failure on this shard
    Timeout,  // final kTimeout / kDeadlineExceeded on this shard
  };
  int shard = 0;
  Kind kind = Kind::Success;
};

class ShardSet {
 public:
  explicit ShardSet(FleetOptions options);

  [[nodiscard]] int shardCount() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] const FleetOptions& options() const noexcept {
    return options_;
  }

  /// Routing view of the whole fleet (one lock, one copy).
  [[nodiscard]] std::vector<ShardSnapshot> snapshot() const;

  /// Sequentially advances per-shard health from an event log. The caller
  /// (serve loop / bench driver) folds each conversation's events in
  /// request order — this is what keeps the health trajectory identical
  /// at every thread count.
  void fold(const std::vector<ShardEvent>& events);

  /// Chaos hooks. A killed shard is permanently ineligible; a slowed
  /// shard injects FleetPolicy::slowShardLatencySeconds per call until
  /// un-slowed. Both take effect at the next snapshot (batch boundary).
  void killShard(int shard);
  void slowShard(int shard, bool slowed = true);

  struct FleetStats {
    std::uint64_t ejections = 0;         // Closed/HalfOpen -> Open
    std::uint64_t timeoutEjections = 0;  // of which via the timeout path
    std::uint64_t probes = 0;            // Open -> HalfOpen transitions
    std::uint64_t recoveries = 0;        // HalfOpen -> Closed
  };
  [[nodiscard]] FleetStats stats() const;

  /// `[{"shard":0,"state":"closed","killed":false,"slowed":false,
  ///    "requests":N,"failures":N,"timeouts":N}, ...]` — the honest
  /// degradation record embedded in the serve drain summary.
  [[nodiscard]] std::string healthJson() const;

 private:
  struct Shard {
    ShardState state = ShardState::Closed;
    bool killed = false;
    bool slowed = false;
    int consecutiveFailures = 0;
    int consecutiveTimeouts = 0;
    int cooldownSkips = 0;
    std::uint64_t requests = 0;  // final outcomes attributed to this shard
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
    obs::Counter requestsCounter;
    obs::Counter failuresCounter;
  };

  void ejectLocked(Shard& shard, int index, bool viaTimeout);

  FleetOptions options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  FleetStats stats_;
};

class ShardedClient : public LlmClient {
 public:
  /// One instance serves ONE conversation (chain), identified by its seed;
  /// instances are not thread-safe (conversations are sequential by
  /// nature), but any number of them may share one ShardSet.
  ShardedClient(ShardSet& fleet, std::uint64_t chainSeed);

  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source) override;
  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge, CallContext& context) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source, CallContext& context) override;
  [[nodiscard]] std::string_view describe() const override {
    return "sharded";
  }

  /// Drains the recorded event log (the serve loop folds it into the
  /// ShardSet after each batch).
  [[nodiscard]] std::vector<ShardEvent> takeEvents();

  struct Stats {
    std::uint64_t failovers = 0;      // conversation re-homed to a new shard
    std::uint64_t hedges = 0;         // hedged calls issued
    std::uint64_t hedgeWins = 0;      // hedge returned faster than the home
    std::uint64_t replayedTurns = 0;  // prefix turns replayed on rebuilds
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Shard currently holding the conversation (-1 before the first call).
  [[nodiscard]] int servingShard() const noexcept { return stack_.shard; }

 private:
  // One recorded conversation turn; generated-for challenges must outlive
  // the conversation (they do: the catalogue is immortal).
  struct Turn {
    bool generate = false;
    const corpus::Challenge* challenge = nullptr;
    std::string input;
  };

  // An owning backend stack pinned to one shard. Members are declared in
  // dependency order (model first) so destruction unwinds outermost-first;
  // unique_ptr keeps pointees address-stable across Stack moves.
  struct Stack {
    int shard = -1;
    bool slowed = false;  // the snapshot state the stack was built against
    std::unique_ptr<SyntheticLlm> model;
    std::unique_ptr<FaultInjectingClient> faulty;
    std::unique_ptr<ResilientClient> resilient;
    LlmClient* top = nullptr;
  };

  [[nodiscard]] Stack buildStack(int shard, const ShardSnapshot& view) const;
  void replayHistory(Stack& stack);
  [[nodiscard]] static util::Result<std::string> callStack(
      Stack& stack, const Turn& turn, CallContext& context);
  [[nodiscard]] util::Result<std::string> dispatch(Turn turn,
                                                   CallContext& context);
  [[nodiscard]] util::Result<std::string> dispatchInner(const Turn& turn,
                                                        CallContext& context);
  void maybeHedge(const Turn& turn, CallContext& context,
                  double chargedBefore, const std::vector<int>& candidates,
                  std::size_t index, const std::vector<ShardSnapshot>& fleet);
  /// Eligible shards in deterministic failover order starting at `from`,
  /// recording Skipped events for Open shards when `recordSkips`.
  [[nodiscard]] std::vector<int> eligibleFrom(
      int from, const std::vector<ShardSnapshot>& fleet, bool recordSkips);

  ShardSet& fleet_;
  std::uint64_t chainSeed_;
  Stack stack_;
  int lastShard_ = -1;  // affinity + failover accounting across turns
                        // (survives the stack being dropped on failure)
  std::vector<Turn> history_;
  std::vector<ShardEvent> events_;
  Stats stats_;
};

}  // namespace sca::llm
