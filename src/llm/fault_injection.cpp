#include "llm/fault_injection.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace sca::llm {
namespace {

/// What the API returns when it declines: a refusal is a *successful*
/// HTTP response, so it surfaces as an OK Result that fails validation.
constexpr std::string_view kRefusalText =
    "I'm sorry, but I can't help with transforming this code.";

/// Fault counts describe the transport, not the output: a faults-on run
/// serves the same bytes as a faults-off one with different counts, and
/// the chaos controls (slowed, killed shards) move them too. The stable
/// (byte-compared) metrics section holds only what the output determines,
/// so these are runtime-tagged. Handles are cached per call site below.
obs::Counter faultCounter(const char* name) {
  return obs::MetricsRegistry::global().counter(name,
                                                obs::Stability::kRuntime);
}

}  // namespace

FaultOptions FaultOptions::scaled(double totalRate, std::uint64_t seed) {
  const double rate = std::clamp(totalRate, 0.0, 0.95);
  FaultOptions options;
  options.seed = seed;
  options.timeoutRate = rate * 0.25;
  options.rateLimitRate = rate * 0.25;
  options.emptyRate = rate * 0.20;
  options.truncateRate = rate * 0.15;
  options.garbageRate = rate * 0.15;
  return options;
}

FaultInjectingClient::FaultInjectingClient(LlmClient& inner,
                                           FaultOptions options)
    : inner_(inner),
      options_(options),
      rng_(util::combine64(util::hash64("fault-injection"), options.seed)) {}

FaultInjectingClient::FaultKind FaultInjectingClient::roll() {
  const double draw = rng_.uniformReal();
  double edge = options_.timeoutRate;
  if (draw < edge) return FaultKind::Timeout;
  edge += options_.rateLimitRate;
  if (draw < edge) return FaultKind::RateLimit;
  edge += options_.emptyRate;
  if (draw < edge) return FaultKind::Empty;
  edge += options_.truncateRate;
  if (draw < edge) return FaultKind::Truncate;
  edge += options_.garbageRate;
  if (draw < edge) return FaultKind::Garbage;
  // Slow is the LAST edge by contract (see header): schedules with
  // slowRate == 0 keep their historical draw-to-fault mapping bit for bit.
  edge += options_.slowRate;
  if (draw < edge) return FaultKind::Slow;
  return FaultKind::None;
}

std::string FaultInjectingClient::truncateOutput(const std::string& good,
                                                 double fraction) {
  // Cut just past an opening brace at (or before) the chosen point: the
  // unclosed brace guarantees the re-parse is not clean, so the resilience
  // layer's validator always catches the corruption.
  const std::size_t target = static_cast<std::size_t>(
      static_cast<double>(good.size()) * std::clamp(fraction, 0.0, 1.0));
  const std::size_t brace = good.rfind('{', target);
  if (brace != std::string::npos) return good.substr(0, brace + 1);
  const std::size_t anyBrace = good.find('{');
  if (anyBrace != std::string::npos) return good.substr(0, anyBrace + 1);
  return std::string();  // braceless source: "truncate to nothing"
}

std::string FaultInjectingClient::garbleOutput(const std::string& good) {
  // '@' is not in the language's alphabet, so the marker alone makes the
  // re-parse warn; keeping a prefix of the real code models the partially
  // rewritten, style-destroyed completions seen from real models.
  std::string out = "@@ garbled completion @@\n";
  out.append(good, 0, good.size() / 2);
  return out;
}

util::Result<std::string> FaultInjectingClient::dispatch(
    std::uint64_t requestKey, const std::function<std::string()>& call,
    CallContext& context) {
  ++stats_.attempts;

  // Replay: a retry of the request whose completion we last corrupted is
  // served the stashed good completion — the model already produced it, so
  // its RNG stream must not advance again.
  if (pendingGood_.has_value() && pendingKey_ == requestKey) {
    if (pendingSlow_) {
      // Slowness is SHARD state, not a per-attempt draw: the retry re-pays
      // the slow wire for the stashed completion's delivery. With an
      // attempt timeout below the latency, every retry hangs up again and
      // the stash survives — the whole ladder surfaces as kTimeout and
      // byte-identity is restored by conversation replay, not the stash.
      const bool attemptTimedOut =
          options_.attemptTimeoutSeconds > 0.0 &&
          options_.slowLatencySeconds >= options_.attemptTimeoutSeconds;
      context.charge(attemptTimedOut ? options_.attemptTimeoutSeconds
                                     : options_.slowLatencySeconds);
      if (attemptTimedOut || context.expired()) {
        ++stats_.slowTimeouts;
        return util::Status(util::StatusCode::kTimeout,
                            attemptTimedOut
                                ? "injected slow response exceeded attempt "
                                  "timeout"
                                : "injected slow response exceeded deadline");
      }
    }
    std::string good = std::move(*pendingGood_);
    pendingGood_.reset();
    pendingSlow_ = false;
    return good;
  }
  pendingGood_.reset();  // a different request invalidates the stash
  pendingSlow_ = false;

  const FaultKind kind = roll();
  if (kind != FaultKind::None) {
    obs::logEvent(obs::LogLevel::kDebug, "llm", "fault_injected",
                  [&](util::JsonObjectBuilder& fields) {
                    static constexpr const char* kNames[] = {
                        "none", "timeout", "rate_limit", "empty",
                        "truncated", "garbage", "slow"};
                    fields.add("kind", kNames[static_cast<int>(kind)]);
                  });
  }
  switch (kind) {
    case FaultKind::Timeout: {
      ++stats_.timeouts;
      static const obs::Counter kTimeoutFaults =
          faultCounter("llm_faults_timeout");
      kTimeoutFaults.add();
      return util::Status(util::StatusCode::kTimeout, "injected timeout");
    }
    case FaultKind::RateLimit: {
      ++stats_.rateLimits;
      static const obs::Counter kRateLimitFaults =
          faultCounter("llm_faults_rate_limit");
      kRateLimitFaults.add();
      return util::Status(util::StatusCode::kRateLimited,
                          "injected rate limit");
    }
    case FaultKind::Empty: {
      ++stats_.empties;
      static const obs::Counter kEmptyFaults =
          faultCounter("llm_faults_empty");
      kEmptyFaults.add();
      return std::string(kRefusalText);
    }
    case FaultKind::Truncate: {
      ++stats_.truncations;
      static const obs::Counter kTruncatedFaults =
          faultCounter("llm_faults_truncated");
      kTruncatedFaults.add();
      std::string good = call();
      const double fraction = rng_.uniformReal(0.3, 0.9);
      std::string bad = truncateOutput(good, fraction);
      pendingGood_ = std::move(good);
      pendingKey_ = requestKey;
      return bad;
    }
    case FaultKind::Garbage: {
      ++stats_.garbled;
      static const obs::Counter kGarbageFaults =
          faultCounter("llm_faults_garbage");
      kGarbageFaults.add();
      std::string good = call();
      std::string bad = garbleOutput(good);
      pendingGood_ = std::move(good);
      pendingKey_ = requestKey;
      return bad;
    }
    case FaultKind::Slow: {
      // A straggler, not an outage: the model DOES produce the completion
      // (its RNG advances exactly as on a healthy call) — only the wire is
      // slow. Within the caller's budget the call still succeeds; past it
      // the caller saw nothing come back, so it surfaces as a timeout with
      // the good completion stashed for the retry.
      ++stats_.slow;
      static const obs::Counter kSlowFaults = faultCounter("llm_faults_slow");
      kSlowFaults.add();
      std::string good = call();
      const bool attemptTimedOut =
          options_.attemptTimeoutSeconds > 0.0 &&
          options_.slowLatencySeconds >= options_.attemptTimeoutSeconds;
      // An attempt-timeout hangs up at the timeout mark, so only that much
      // latency is charged — the caller did not wait out the straggler.
      context.charge(attemptTimedOut ? options_.attemptTimeoutSeconds
                                     : options_.slowLatencySeconds);
      if (attemptTimedOut || context.expired()) {
        ++stats_.slowTimeouts;
        pendingGood_ = std::move(good);
        pendingKey_ = requestKey;
        pendingSlow_ = true;
        return util::Status(util::StatusCode::kTimeout,
                            attemptTimedOut
                                ? "injected slow response exceeded attempt "
                                  "timeout"
                                : "injected slow response exceeded deadline");
      }
      return good;
    }
    case FaultKind::None:
      break;
  }
  return call();
}

util::Result<std::string> FaultInjectingClient::tryGenerate(
    const corpus::Challenge& challenge) {
  CallContext unlimited;
  return tryGenerate(challenge, unlimited);
}

util::Result<std::string> FaultInjectingClient::tryTransform(
    const std::string& source) {
  CallContext unlimited;
  return tryTransform(source, unlimited);
}

util::Result<std::string> FaultInjectingClient::tryGenerate(
    const corpus::Challenge& challenge, CallContext& context) {
  const std::uint64_t key =
      util::combine64(util::hash64("generate"), util::hash64(challenge.id));
  return dispatch(key, [&] {
    util::Result<std::string> result = inner_.tryGenerate(challenge, context);
    return result.valueOr(std::string());
  }, context);
}

util::Result<std::string> FaultInjectingClient::tryTransform(
    const std::string& source, CallContext& context) {
  const std::uint64_t key =
      util::combine64(util::hash64("transform"), util::hash64(source));
  return dispatch(key, [&] {
    util::Result<std::string> result = inner_.tryTransform(source, context);
    return result.valueOr(std::string());
  }, context);
}

}  // namespace sca::llm
