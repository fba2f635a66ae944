// ResilientClient: retry, circuit breaking, budgets, deadlines and output
// validation around any LlmClient.
//
// The layer turns the transient failures a real API emits (see
// fault_injection.hpp for the taxonomy) into either a good completion or a
// single, final Status the caller can degrade on. Five mechanisms:
//
//   * Retry with exponential backoff + deterministic jitter. Delays follow
//     base * multiplier^k capped at max, each multiplied by a jitter factor
//     drawn from a seeded stream — the schedule is a pure function of the
//     seed, so reruns retry at identical (simulated) instants. Against the
//     in-process model the delays are accounted, not slept: they accrue to
//     the "llm_backoff_sim" phase and stats().simulatedBackoffSeconds; a
//     real backend would install a sleeper via setSleeper().
//
//   * Circuit breaker, call-count based for determinism (wall-clock
//     cooldowns would make reruns diverge). `failureThreshold` consecutive
//     attempt failures open the circuit; while open, attempts fail fast
//     with kUnavailable; after `cooldownAttempts` rejected attempts the
//     circuit goes half-open and admits ONE probe — success closes it,
//     failure re-opens it. Under concurrency exactly one caller becomes
//     the probe (probe-in-flight gating); the rest fail fast instead of
//     stampeding a backend that is still recovering.
//
//   * Retry budget: a per-client cap on total retries across its lifetime,
//     so a persistently bad backend cannot stall a chain forever. On
//     exhaustion every subsequent failure is final (kResourceExhausted).
//
//   * Deadline budget (CallContext): every backoff delay is charged to the
//     caller-supplied context; when the context cannot afford the NEXT
//     delay the loop stops early with kDeadlineExceeded — no point backing
//     off into a deadline that has already passed. Callers without a
//     deadline (the default context) never hit this path, byte for byte.
//
//   * Output validation: an OK completion is rejected (kEmptyResponse /
//     kInvalidOutput) when it is empty, a refusal, or no longer parses
//     cleanly through ast::parse — the contract a transformation must keep
//     for the stylometry pipeline to measure anything.
//
// Thread safety: breaker state, retry budget, jitter stream and stats are
// mutex-guarded, so one instance may front a shard shared by concurrent
// serve requests. The inner request itself runs OUTSIDE the lock. The
// fleet builds one client stack per conversation, which is what keeps
// every stream deterministic; determinism under sharing is the serving
// layer's problem (see sharded_client.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "llm/client.hpp"
#include "util/rng.hpp"

namespace sca::llm {

struct RetryPolicy {
  int maxAttempts = 6;             // first try + up to 5 retries per request
  double baseDelaySeconds = 0.5;
  double maxDelaySeconds = 30.0;
  double backoffMultiplier = 2.0;
  double jitterFraction = 0.25;    // delay *= 1 + U(-j, +j), deterministic
  std::uint64_t seed = 1;          // jitter stream
  std::uint64_t retryBudget = 256; // total retries over the client lifetime
};

struct BreakerPolicy {
  int failureThreshold = 8;  // consecutive attempt failures -> open
  int cooldownAttempts = 4;  // fast-fails while open before half-open probe
};

struct ValidationPolicy {
  bool rejectEmptyOrRefusal = true;
  bool requireCleanParse = true;  // re-parse via ast::parse, require clean
};

class ResilientClient : public LlmClient {
 public:
  enum class BreakerState { Closed, Open, HalfOpen };

  ResilientClient(LlmClient& inner, RetryPolicy retry,
                  BreakerPolicy breaker = {}, ValidationPolicy validation = {});

  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source) override;
  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge, CallContext& context) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source, CallContext& context) override;
  [[nodiscard]] std::string_view describe() const override {
    return "resilient";
  }

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t validationFailures = 0;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerFastFails = 0;
    std::uint64_t probeFastFails = 0;   // callers rejected while a half-open
                                        // probe was already in flight
    std::uint64_t budgetExhaustions = 0;
    std::uint64_t deadlineStops = 0;    // retries abandoned: deadline could
                                        // not cover the next backoff delay
    double simulatedBackoffSeconds = 0.0;
  };
  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  [[nodiscard]] BreakerState breakerState() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// Every backoff delay issued so far, in order (capped at 4096 entries) —
  /// the observable for schedule-determinism tests.
  [[nodiscard]] std::vector<double> backoffLog() const {
    std::lock_guard<std::mutex> lock(mu_);
    return backoffLog_;
  }

  /// Replaces the no-op sleeper (a real backend would pass
  /// std::this_thread::sleep_for here; tests pass a recorder). Not
  /// thread-safe: install before sharing the client.
  void setSleeper(std::function<void(double)> sleeper) {
    sleeper_ = std::move(sleeper);
  }

  /// The undecorated backoff curve: base * multiplier^retryIndex, capped.
  /// Jitter is applied on top by the seeded stream at call time.
  [[nodiscard]] double baseDelayFor(int retryIndex) const noexcept;

 private:
  [[nodiscard]] util::Status validate(const std::string& output) const;
  [[nodiscard]] util::Result<std::string> perform(
      const std::function<util::Result<std::string>()>& request,
      CallContext& context);
  // Both require mu_ held.
  void noteFailureLocked();
  void noteSuccessLocked();

  LlmClient& inner_;
  RetryPolicy retry_;
  BreakerPolicy breaker_;
  ValidationPolicy validation_;
  util::Rng jitterRng_;
  std::function<void(double)> sleeper_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::Closed;
  bool probeInFlight_ = false;  // one caller owns the half-open probe
  int consecutiveFailures_ = 0;
  int openFastFails_ = 0;
  std::uint64_t retriesUsed_ = 0;
  Stats stats_;
  std::vector<double> backoffLog_;
};

}  // namespace sca::llm
