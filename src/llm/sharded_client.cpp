#include "llm/sharded_client.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/log.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

// Fleet telemetry is runtime-tagged for the same reason the retry layer's
// is: which shard serves (and how often failover fires) depends on the
// chaos schedule, never on the stable output bytes.
obs::Counter fleetCounter(const char* name) {
  return obs::MetricsRegistry::global().counter(name,
                                                obs::Stability::kRuntime);
}

obs::Counter& failoversCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_failovers");
  return counter;
}

obs::Counter& hedgesCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_hedges");
  return counter;
}

obs::Counter& hedgeWinsCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_hedge_wins");
  return counter;
}

obs::Counter& replaysCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_replays");
  return counter;
}

obs::Counter& ejectionsCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_ejections");
  return counter;
}

obs::Counter& timeoutEjectionsCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_timeout_ejections");
  return counter;
}

obs::Counter& probesCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_probes");
  return counter;
}

obs::Counter& recoveriesCounter() {
  static obs::Counter counter = fleetCounter("llm_shard_recoveries");
  return counter;
}

}  // namespace

std::string_view shardStateName(ShardState state) noexcept {
  switch (state) {
    case ShardState::Closed: return "closed";
    case ShardState::Open: return "open";
    case ShardState::HalfOpen: return "half_open";
  }
  return "unknown";
}

FleetOptions FleetOptions::fromEnv() {
  FleetOptions options;
  options.shards = static_cast<int>(
      util::envSize("SCA_SHARDS", static_cast<std::size_t>(options.shards),
                    kMaxShards));
  options.faultRate = util::envDouble("SCA_FAULT_RATE", options.faultRate);
  // Hedging stays off unless a positive delay is set; an explicit 0 is
  // rejected like any other value that cannot enable it.
  const double hedge = util::envDouble("SCA_HEDGE_S", -1.0);
  if (hedge == 0.0) {
    throw std::invalid_argument(std::string("SCA_HEDGE_S=") +
                                std::getenv("SCA_HEDGE_S") +
                                ": expected a positive number of seconds");
  }
  if (hedge > 0.0) options.policy.hedgeAfterSeconds = hedge;
  return options;
}

ShardSet::ShardSet(FleetOptions options) : options_(options) {
  options_.shards = std::max(1, options_.shards);
  shards_.resize(static_cast<std::size_t>(options_.shards));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "llm_shard" + std::to_string(i);
    shards_[i].requestsCounter = obs::MetricsRegistry::global().counter(
        prefix + "_requests", obs::Stability::kRuntime);
    shards_[i].failuresCounter = obs::MetricsRegistry::global().counter(
        prefix + "_failures", obs::Stability::kRuntime);
  }
}

std::vector<ShardSnapshot> ShardSet::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardSnapshot view;
    view.state = shard.state;
    view.killed = shard.killed;
    view.slowed = shard.slowed;
    out.push_back(view);
  }
  return out;
}

void ShardSet::ejectLocked(Shard& shard, int index, bool viaTimeout) {
  if (shard.state == ShardState::Open) return;
  shard.state = ShardState::Open;
  shard.cooldownSkips = 0;
  shard.consecutiveFailures = 0;
  shard.consecutiveTimeouts = 0;
  ++stats_.ejections;
  ejectionsCounter().add();
  if (viaTimeout) {
    ++stats_.timeoutEjections;
    timeoutEjectionsCounter().add();
  }
  obs::logEvent(obs::LogLevel::kWarn, "fleet", "shard_ejected",
                [&](util::JsonObjectBuilder& fields) {
                  fields.addInt("shard", index);
                  fields.add("via", viaTimeout ? "timeout" : "failure");
                });
}

void ShardSet::fold(const std::vector<ShardEvent>& events) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ShardEvent& event : events) {
    if (event.shard < 0 ||
        event.shard >= static_cast<int>(shards_.size())) {
      continue;
    }
    Shard& shard = shards_[static_cast<std::size_t>(event.shard)];
    switch (event.kind) {
      case ShardEvent::Kind::Skipped:
        // Cooldown is counted in routed-around requests, the call-count
        // analogue of the breaker's cooldownAttempts: wall-clock cooldowns
        // would make reruns diverge.
        if (shard.state == ShardState::Open && !shard.killed) {
          if (++shard.cooldownSkips >= options_.policy.cooldownRequests) {
            shard.state = ShardState::HalfOpen;
            shard.cooldownSkips = 0;
            ++stats_.probes;
            probesCounter().add();
            obs::logEvent(obs::LogLevel::kInfo, "fleet", "shard_half_open",
                          [&](util::JsonObjectBuilder& fields) {
                            fields.addInt("shard", event.shard);
                          });
          }
        }
        break;
      case ShardEvent::Kind::Success:
        ++shard.requests;
        shard.requestsCounter.add();
        if (shard.state == ShardState::HalfOpen) {
          ++stats_.recoveries;
          recoveriesCounter().add();
          obs::logEvent(obs::LogLevel::kInfo, "fleet", "shard_recovered",
                        [&](util::JsonObjectBuilder& fields) {
                          fields.addInt("shard", event.shard);
                        });
        }
        shard.state = ShardState::Closed;
        shard.consecutiveFailures = 0;
        shard.consecutiveTimeouts = 0;
        shard.cooldownSkips = 0;
        break;
      case ShardEvent::Kind::Failure:
      case ShardEvent::Kind::Timeout: {
        const bool timeout = event.kind == ShardEvent::Kind::Timeout;
        ++shard.requests;
        ++shard.failures;
        shard.requestsCounter.add();
        shard.failuresCounter.add();
        if (timeout) ++shard.timeouts;
        if (shard.state == ShardState::HalfOpen) {
          // Failed probe: straight back to ejected, cooldown restarts.
          ejectLocked(shard, event.shard, timeout);
          break;
        }
        ++shard.consecutiveFailures;
        shard.consecutiveTimeouts =
            timeout ? shard.consecutiveTimeouts + 1 : 0;
        // A slow shard is worse than a flapping one — it burns deadline
        // budget on every request it touches — so timeouts eject on their
        // own, lower threshold.
        if (shard.consecutiveTimeouts >=
            options_.policy.timeoutEjectThreshold) {
          ejectLocked(shard, event.shard, /*viaTimeout=*/true);
        } else if (shard.consecutiveFailures >=
                   options_.policy.failureEjectThreshold) {
          ejectLocked(shard, event.shard, /*viaTimeout=*/false);
        }
        break;
      }
    }
  }
}

void ShardSet::killShard(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return;
  shards_[static_cast<std::size_t>(shard)].killed = true;
  static const obs::Counter kKills = fleetCounter("llm_shard_kills");
  kKills.add();
  obs::logEvent(obs::LogLevel::kWarn, "fleet", "shard_killed",
                [&](util::JsonObjectBuilder& fields) {
                  fields.addInt("shard", shard);
                });
}

void ShardSet::slowShard(int shard, bool slowed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return;
  shards_[static_cast<std::size_t>(shard)].slowed = slowed;
  static const obs::Counter kSlowdowns = fleetCounter("llm_shard_slowdowns");
  if (slowed) kSlowdowns.add();
  obs::logEvent(obs::LogLevel::kWarn, "fleet", "shard_slowed",
                [&](util::JsonObjectBuilder& fields) {
                  fields.addInt("shard", shard);
                  fields.addRaw("slowed", slowed ? "true" : "false");
                });
}

ShardSet::FleetStats ShardSet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ShardSet::healthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    if (i > 0) out += ",";
    util::JsonObjectBuilder item;
    item.addUint("shard", i);
    item.add("state", shardStateName(shard.state));
    item.addRaw("killed", shard.killed ? "true" : "false");
    item.addRaw("slowed", shard.slowed ? "true" : "false");
    item.addUint("requests", shard.requests);
    item.addUint("failures", shard.failures);
    item.addUint("timeouts", shard.timeouts);
    out += item.str();
  }
  out += "]";
  return out;
}

ShardedClient::ShardedClient(ShardSet& fleet, std::uint64_t chainSeed)
    : fleet_(fleet), chainSeed_(chainSeed) {}

std::vector<ShardEvent> ShardedClient::takeEvents() {
  std::vector<ShardEvent> out = std::move(events_);
  events_.clear();
  return out;
}

ShardedClient::Stack ShardedClient::buildStack(
    int shard, const ShardSnapshot& view) const {
  const FleetOptions& fleetOptions = fleet_.options();
  Stack stack;
  stack.shard = shard;
  stack.slowed = view.slowed;

  // The model seed is the chain seed ALONE: every shard holds the same
  // model, so a completion that succeeds is byte-identical no matter where
  // it was served — the invariant the whole failover design rests on.
  LlmOptions modelOptions;
  modelOptions.year = fleetOptions.year;
  modelOptions.seed = chainSeed_;
  stack.model = std::make_unique<SyntheticLlm>(modelOptions);
  stack.top = stack.model.get();

  // Transport seeds ARE shard-salted: shards fail independently.
  const std::uint64_t transportSeed = util::combine64(
      chainSeed_,
      util::combine64(util::hash64("shard"),
                      static_cast<std::uint64_t>(shard)));
  FaultOptions faults =
      FaultOptions::scaled(fleetOptions.faultRate, transportSeed);
  if (view.slowed) {
    faults.slowRate = 1.0;
    faults.slowLatencySeconds = fleetOptions.policy.slowShardLatencySeconds;
    faults.attemptTimeoutSeconds = fleetOptions.policy.attemptTimeoutSeconds;
  }
  if (faults.totalRate() > 0.0) {
    stack.faulty = std::make_unique<FaultInjectingClient>(*stack.top, faults);
    RetryPolicy retry;
    retry.seed = transportSeed;
    stack.resilient = std::make_unique<ResilientClient>(*stack.faulty, retry);
    stack.top = stack.resilient.get();
  }
  return stack;
}

void ShardedClient::replayHistory(Stack& stack) {
  // Replay is state reconstruction, not API traffic: the completions in
  // the history already happened, so they re-run against the BARE model —
  // no faults, no retries — which cannot fail and advances the
  // conversation/RNG state exactly as the original calls did.
  for (const Turn& turn : history_) {
    if (turn.generate) {
      (void)stack.model->generate(*turn.challenge);
    } else {
      (void)stack.model->transform(turn.input);
    }
  }
  if (!history_.empty()) {
    stats_.replayedTurns += history_.size();
    replaysCounter().add(history_.size());
  }
}

util::Result<std::string> ShardedClient::callStack(Stack& stack,
                                                   const Turn& turn,
                                                   CallContext& context) {
  if (turn.generate) return stack.top->tryGenerate(*turn.challenge, context);
  return stack.top->tryTransform(turn.input, context);
}

std::vector<int> ShardedClient::eligibleFrom(
    int from, const std::vector<ShardSnapshot>& fleet, bool recordSkips) {
  std::vector<int> out;
  const int count = static_cast<int>(fleet.size());
  for (int step = 0; step < count; ++step) {
    const int index = (from + step) % count;
    const ShardSnapshot& view = fleet[static_cast<std::size_t>(index)];
    if (view.killed) continue;  // permanently out; no cooldown to advance
    if (view.state == ShardState::Open) {
      if (recordSkips) {
        events_.push_back({index, ShardEvent::Kind::Skipped});
      }
      continue;
    }
    out.push_back(index);  // Closed serves; HalfOpen admits the probe
  }
  return out;
}

util::Result<std::string> ShardedClient::dispatch(Turn turn,
                                                  CallContext& context) {
  util::Result<std::string> result = dispatchInner(turn, context);
  // The turn joins the canonical conversation whether or not delivery
  // succeeded (see the header's degradation matrix): a failed turn's
  // completion is replayed into existence at the next stack rebuild, so
  // later successes stay byte-identical to a run where nothing failed.
  history_.push_back(std::move(turn));
  return result;
}

util::Result<std::string> ShardedClient::dispatchInner(
    const Turn& turn, CallContext& context) {
  const std::vector<ShardSnapshot> fleet = fleet_.snapshot();
  const int count = static_cast<int>(fleet.size());
  const int home =
      static_cast<int>(chainSeed_ % static_cast<std::uint64_t>(count));

  // Conversation affinity: the walk starts at the shard that last held
  // the conversation (home before the first call). An ineligible current
  // shard is simply walked over, which IS the failover.
  const int from = lastShard_ >= 0 ? lastShard_ : home;
  const std::vector<int> candidates =
      eligibleFrom(from, fleet, /*recordSkips=*/true);
  if (candidates.empty()) {
    stack_ = Stack{};
    return util::Status(util::StatusCode::kUnavailable,
                        "no eligible shard (all killed or ejected)");
  }

  util::Status last(util::StatusCode::kUnavailable, "no shard attempted");
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const int shard = candidates[i];
    if (lastShard_ >= 0 && lastShard_ != shard) {
      ++stats_.failovers;
      failoversCounter().add();
      if (context.telemetry != nullptr) ++context.telemetry->failovers;
      obs::logEvent(obs::LogLevel::kWarn, "fleet", "failover",
                    [&](util::JsonObjectBuilder& fields) {
                      fields.addInt("from_shard", lastShard_);
                      fields.addInt("to_shard", shard);
                      fields.addUint("replayed_turns", history_.size());
                    });
    }
    // Rebuild on re-homing AND when the shard's slowed state changed under
    // a retained stack: fault options are frozen at build time, so a stack
    // built before slowShard() would otherwise keep serving fast.
    const ShardSnapshot& view = fleet[static_cast<std::size_t>(shard)];
    if (stack_.shard != shard || stack_.slowed != view.slowed) {
      Stack fresh = buildStack(shard, view);
      replayHistory(fresh);
      stack_ = std::move(fresh);
      if (context.telemetry != nullptr) {
        context.telemetry->replayedTurns +=
            static_cast<int>(history_.size());
      }
    }
    lastShard_ = shard;
    if (context.telemetry != nullptr) context.telemetry->shard = shard;

    const double chargedBefore = context.chargedSeconds;
    util::Result<std::string> result = callStack(stack_, turn, context);
    if (result.ok()) {
      events_.push_back({shard, ShardEvent::Kind::Success});
      maybeHedge(turn, context, chargedBefore, candidates, i, fleet);
      return result;
    }

    const util::StatusCode code = result.status().code();
    const bool timeout = code == util::StatusCode::kTimeout ||
                         code == util::StatusCode::kDeadlineExceeded;
    events_.push_back(
        {shard, timeout ? ShardEvent::Kind::Timeout
                        : ShardEvent::Kind::Failure});
    last = result.status();

    // A failed turn may have advanced the shard stack's model past the
    // recorded history (post-call faults consult the model before
    // corrupting); the stack is no longer trustworthy for byte-identical
    // serving, so it is dropped — the next attempt rebuilds from history.
    stack_ = Stack{};
    if (code == util::StatusCode::kDeadlineExceeded || context.expired()) {
      // No time left to fail over; the caller counts this against
      // availability. Failover only helps callers with budget remaining.
      return last;
    }
  }
  return last;
}

void ShardedClient::maybeHedge(const Turn& turn, CallContext& context,
                               double chargedBefore,
                               const std::vector<int>& candidates,
                               std::size_t index,
                               const std::vector<ShardSnapshot>& fleet) {
  const FleetPolicy& policy = fleet_.options().policy;
  if (policy.hedgeAfterSeconds <= 0.0) return;
  const double charged = context.chargedSeconds - chargedBefore;
  if (charged < policy.hedgeAfterSeconds) return;
  if (candidates.size() < 2) return;
  const int next = candidates[(index + 1) % candidates.size()];
  if (next == stack_.shard) return;

  ++stats_.hedges;
  hedgesCounter().add();
  if (context.telemetry != nullptr) ++context.telemetry->hedges;
  // Race the same turn on the next eligible shard. Only a STRICTLY faster
  // response is useful, so the hedge's budget is the incumbent's latency.
  Stack hedge = buildStack(next, fleet[static_cast<std::size_t>(next)]);
  replayHistory(hedge);
  CallContext hedgeContext = CallContext::withDeadline(charged);
  util::Result<std::string> hedged = callStack(hedge, turn, hedgeContext);
  if (hedged.ok() && hedgeContext.chargedSeconds < charged) {
    // First response wins: the conversation migrates to the faster shard
    // and the request is refunded the latency difference. The BYTES cannot
    // differ — both shards hold the same chain-seeded model. A lost hedge
    // records no event: duplicated work must not eject a healthy shard.
    ++stats_.hedgeWins;
    hedgeWinsCounter().add();
    events_.push_back({next, ShardEvent::Kind::Success});
    context.chargedSeconds -= charged - hedgeContext.chargedSeconds;
    stack_ = std::move(hedge);
    lastShard_ = next;
    if (context.telemetry != nullptr) {
      ++context.telemetry->hedgeWins;
      context.telemetry->shard = next;
    }
    obs::logEvent(obs::LogLevel::kInfo, "fleet", "hedge_won",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addInt("shard", next);
                    fields.addDouble("saved_s",
                                     charged - hedgeContext.chargedSeconds,
                                     3);
                  });
  }
}

util::Result<std::string> ShardedClient::tryGenerate(
    const corpus::Challenge& challenge) {
  CallContext unlimited;
  return tryGenerate(challenge, unlimited);
}

util::Result<std::string> ShardedClient::tryTransform(
    const std::string& source) {
  CallContext unlimited;
  return tryTransform(source, unlimited);
}

util::Result<std::string> ShardedClient::tryGenerate(
    const corpus::Challenge& challenge, CallContext& context) {
  Turn turn;
  turn.generate = true;
  turn.challenge = &challenge;
  return dispatch(std::move(turn), context);
}

util::Result<std::string> ShardedClient::tryTransform(
    const std::string& source, CallContext& context) {
  Turn turn;
  turn.generate = false;
  turn.input = source;
  return dispatch(std::move(turn), context);
}

}  // namespace sca::llm
