// FaultInjectingClient: a decorator that makes the always-healthy
// SyntheticLlm fail the way the real ChatGPT API fails.
//
// Six failure modes, drawn from what large-scale attribution pipelines
// actually hit (paper §IV-B ran 20,000+ API calls; Pordanesh & Tan and
// Choi et al. report the same operational taxonomy):
//
//   timeout      the request never completes            (error, pre-call)
//   rate_limit   HTTP 429 push-back                      (error, pre-call)
//   empty        empty or refusal completion             (200 OK, pre-call)
//   truncated    completion cut off mid-output           (200 OK, post-call)
//   garbage      style-destroying unparseable rewrite    (200 OK, post-call)
//   slow         completion arrives, but late            (post-call; charges
//                the CallContext — becomes kTimeout only when the charge
//                blows the caller's deadline)
//
// Determinism and replay: every attempt rolls one draw from a seeded
// stream, so a given (seed, attempt index) always injects the same fault.
// Pre-call faults return WITHOUT consulting the inner client — its RNG
// stream is untouched, exactly as a request that never reached the model.
// Post-call faults consult the inner client once, stash the good
// completion, and hand back a corrupted copy; the retry of the same
// request is served from the stash. Net effect: after the resilience
// layer's retries, the surviving output is byte-identical to a faults-off
// run, which is what lets the serving fleet answer a chaos run with the
// healthy run's bytes.
//
// The slow edge is LAST in the roll chain, so any schedule with
// slowRate == 0 (including every FaultOptions::scaled mix) draws the
// exact fault sequence it always has.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "llm/client.hpp"
#include "util/rng.hpp"

namespace sca::llm {

struct FaultOptions {
  std::uint64_t seed = 1;
  // Per-attempt injection probabilities; at most one fault per attempt.
  double timeoutRate = 0.0;
  double rateLimitRate = 0.0;
  double emptyRate = 0.0;      // includes refusals
  double truncateRate = 0.0;
  double garbageRate = 0.0;
  /// Straggler mode: the completion is produced but `slowLatencySeconds`
  /// of simulated latency is charged to the CallContext. Within budget the
  /// call still succeeds (a slow shard degrades latency, not correctness);
  /// past the deadline it surfaces as kTimeout with the good completion
  /// stashed for replay, feeding the fleet's timeout-ejection logic.
  double slowRate = 0.0;
  double slowLatencySeconds = 60.0;
  /// Per-ATTEMPT timeout, distinct from the request deadline: when > 0 and
  /// a slow attempt's latency reaches it, the caller hangs up at the
  /// timeout mark (charging `attemptTimeoutSeconds`, not the full latency)
  /// and the attempt surfaces as kTimeout — even though the request as a
  /// whole still has budget. This is how a slow-but-functional shard gets
  /// ejected without first burning whole requests: each attempt fails fast
  /// enough that the retry ladder (and then failover) fits inside the
  /// request deadline. 0 disables (attempts wait out the full latency).
  double attemptTimeoutSeconds = 0.0;

  [[nodiscard]] double totalRate() const noexcept {
    return timeoutRate + rateLimitRate + emptyRate + truncateRate +
           garbageRate + slowRate;
  }

  /// Splits one total per-attempt fault probability across the modes with
  /// the mix observed in practice: transport faults dominate (25% timeout,
  /// 25% rate-limit), then refusals (20%), then corrupt completions
  /// (15% truncated, 15% garbage). Slow mode stays 0 — stragglers are a
  /// per-shard chaos knob (see sharded_client.hpp), not part of the
  /// baseline mix, so existing fault schedules keep their exact draws.
  [[nodiscard]] static FaultOptions scaled(double totalRate,
                                           std::uint64_t seed);
};

class FaultInjectingClient : public LlmClient {
 public:
  FaultInjectingClient(LlmClient& inner, FaultOptions options);

  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source) override;
  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge, CallContext& context) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source, CallContext& context) override;
  [[nodiscard]] std::string_view describe() const override {
    return "fault-injecting";
  }

  struct FaultStats {
    std::uint64_t attempts = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t rateLimits = 0;
    std::uint64_t empties = 0;
    std::uint64_t truncations = 0;
    std::uint64_t garbled = 0;
    std::uint64_t slow = 0;          // slow completions injected
    std::uint64_t slowTimeouts = 0;  // of which blew the caller's deadline
    [[nodiscard]] std::uint64_t total() const noexcept {
      return timeouts + rateLimits + empties + truncations + garbled + slow;
    }
  };
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// Corruption helpers, exposed for tests: both outputs are guaranteed to
  /// fail a clean re-parse (truncate cuts just past an opening brace;
  /// garble prepends tokens outside the language).
  [[nodiscard]] static std::string truncateOutput(const std::string& good,
                                                  double fraction);
  [[nodiscard]] static std::string garbleOutput(const std::string& good);

 private:
  enum class FaultKind {
    None, Timeout, RateLimit, Empty, Truncate, Garbage, Slow
  };

  [[nodiscard]] FaultKind roll();
  [[nodiscard]] util::Result<std::string> dispatch(
      std::uint64_t requestKey, const std::function<std::string()>& call,
      CallContext& context);

  LlmClient& inner_;
  FaultOptions options_;
  util::Rng rng_;
  FaultStats stats_;
  // Replay stash for post-call faults: the good completion whose corrupted
  // copy was last handed out, keyed by the request fingerprint.
  std::optional<std::string> pendingGood_;
  std::uint64_t pendingKey_ = 0;
  bool pendingSlow_ = false;  // stash came from a Slow fault: retries of the
                              // DELIVERY still ride the slow wire
};

}  // namespace sca::llm
