#include "llm/resilient_client.hpp"

#include <algorithm>
#include <cmath>

#include "ast/parser.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

/// Refusals open with an apology in every provider's house style.
bool looksLikeRefusal(const std::string& output) {
  return util::startsWith(output, "I'm sorry") ||
         util::startsWith(output, "I am sorry") ||
         util::startsWith(output, "Sorry,");
}

// Process-global aggregates live in the metrics registry (the per-instance
// Stats struct remains the per-client view; both are fed below, no map
// lookups on the hot path). Retries, like the faults that cause them
// (fault_injection.cpp), change how a completion is delivered, never its
// bytes, so the retry-layer telemetry and the backoff histogram are
// runtime-tagged and stay out of the stable (byte-compared) section.
obs::Counter& breakerOpensCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "llm_breaker_opens", obs::Stability::kRuntime);
  return counter;
}

obs::Counter& budgetExhaustionsCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "llm_budget_exhaustions", obs::Stability::kRuntime);
  return counter;
}

obs::Counter& retriesCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "llm_retries", obs::Stability::kRuntime);
  return counter;
}

obs::Counter& validationFailuresCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "llm_validation_failures", obs::Stability::kRuntime);
  return counter;
}

obs::Counter& deadlineStopsCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "llm_deadline_stops", obs::Stability::kRuntime);
  return counter;
}

obs::Histogram& backoffDelayHistogram() {
  static obs::Histogram histogram = obs::MetricsRegistry::global().histogram(
      "llm_backoff_delay_s", {0.25, 0.5, 1, 2, 4, 8, 16, 32},
      obs::Stability::kRuntime);
  return histogram;
}

/// Simulated backoff seconds, reported as the "llm_backoff_sim" phase.
obs::Gauge& backoffPhaseGauge() {
  static obs::Gauge gauge = obs::MetricsRegistry::global().gauge(
      std::string(obs::kPhaseGaugePrefix) + "llm_backoff_sim");
  return gauge;
}

}  // namespace

ResilientClient::ResilientClient(LlmClient& inner, RetryPolicy retry,
                                 BreakerPolicy breaker,
                                 ValidationPolicy validation)
    : inner_(inner),
      retry_(retry),
      breaker_(breaker),
      validation_(validation),
      jitterRng_(util::combine64(util::hash64("retry-jitter"), retry.seed)),
      sleeper_([](double) {}) {}

double ResilientClient::baseDelayFor(int retryIndex) const noexcept {
  const double delay =
      retry_.baseDelaySeconds *
      std::pow(retry_.backoffMultiplier, static_cast<double>(retryIndex));
  return std::min(delay, retry_.maxDelaySeconds);
}

util::Status ResilientClient::validate(const std::string& output) const {
  if (validation_.rejectEmptyOrRefusal) {
    if (output.empty()) {
      return util::Status(util::StatusCode::kEmptyResponse,
                          "empty completion");
    }
    if (looksLikeRefusal(output)) {
      return util::Status(util::StatusCode::kEmptyResponse, "refusal");
    }
  }
  if (validation_.requireCleanParse) {
    const ast::ParseResult parsed = ast::parse(output);
    if (!parsed.clean) {
      std::string detail = "completion does not re-parse cleanly";
      if (!parsed.warnings.empty()) {
        detail += ": " + parsed.warnings.front();
      }
      return util::Status(util::StatusCode::kInvalidOutput, detail);
    }
  }
  return util::Status::ok();
}

void ResilientClient::noteFailureLocked() {
  if (state_ == BreakerState::HalfOpen) {
    // Failed probe: straight back to open, cooldown restarts.
    state_ = BreakerState::Open;
    openFastFails_ = 0;
    obs::logEvent(obs::LogLevel::kWarn, "llm", "breaker_reopened");
    return;
  }
  if (state_ == BreakerState::Closed) {
    if (++consecutiveFailures_ >= breaker_.failureThreshold) {
      state_ = BreakerState::Open;
      openFastFails_ = 0;
      consecutiveFailures_ = 0;
      ++stats_.breakerOpens;
      breakerOpensCounter().add();
      obs::logEvent(obs::LogLevel::kWarn, "llm", "breaker_opened",
                    [&](util::JsonObjectBuilder& fields) {
                      fields.addInt("failure_threshold",
                                    breaker_.failureThreshold);
                    });
    }
  }
}

void ResilientClient::noteSuccessLocked() {
  if (state_ != BreakerState::Closed) {
    obs::logEvent(obs::LogLevel::kInfo, "llm", "breaker_closed");
  }
  state_ = BreakerState::Closed;
  consecutiveFailures_ = 0;
  openFastFails_ = 0;
}

util::Result<std::string> ResilientClient::perform(
    const std::function<util::Result<std::string>()>& request,
    CallContext& context) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  obs::Span span("llm_request", "llm");
  util::Status last(util::StatusCode::kInternal, "no attempt made");

  if (context.expired()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadlineStops;
    deadlineStopsCounter().add();
    if (context.telemetry != nullptr) ++context.telemetry->deadlineStops;
    return util::Status(util::StatusCode::kDeadlineExceeded,
                        "deadline expired before first attempt");
  }

  for (int attempt = 0; attempt < retry_.maxAttempts; ++attempt) {
    if (attempt > 0) {
      double delay = 0.0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Retrying costs budget; once the budget is gone the failure is
        // final and the caller's degradation policy takes over.
        if (retriesUsed_ >= retry_.retryBudget) {
          ++stats_.budgetExhaustions;
          budgetExhaustionsCounter().add();
          obs::logEvent(obs::LogLevel::kError, "llm",
                        "retry_budget_exhausted",
                        [&](util::JsonObjectBuilder& fields) {
                          fields.addUint("budget", retry_.retryBudget);
                          fields.add("last_error", last.toString());
                        });
          return util::Status(util::StatusCode::kResourceExhausted,
                              "retry budget spent; last error: " +
                                  last.toString());
        }
        delay = baseDelayFor(attempt - 1);
        delay *= 1.0 + jitterRng_.uniformReal(-retry_.jitterFraction,
                                              retry_.jitterFraction);
        // Deadline gate: backing off into a deadline that cannot cover the
        // delay would only convert a retryable failure into a late one.
        // The jitter draw above is already consumed — the stream position
        // is a function of retry count, never of deadline outcomes.
        if (!context.canAfford(delay)) {
          ++stats_.deadlineStops;
          deadlineStopsCounter().add();
          if (context.telemetry != nullptr) {
            ++context.telemetry->deadlineStops;
          }
          obs::logEvent(obs::LogLevel::kWarn, "llm", "deadline_stop",
                        [&](util::JsonObjectBuilder& fields) {
                          fields.addDouble("next_delay_s", delay, 3);
                          fields.addDouble("remaining_s",
                                           context.remainingSeconds(), 3);
                          fields.add("last_error", last.toString());
                        });
          return util::Status(util::StatusCode::kDeadlineExceeded,
                              "deadline cannot cover next backoff; "
                              "last error: " +
                                  last.toString());
        }
        ++retriesUsed_;
        ++stats_.retries;
        retriesCounter().add();
        stats_.simulatedBackoffSeconds += delay;
        if (backoffLog_.size() < 4096) backoffLog_.push_back(delay);
      }
      context.charge(delay);
      if (context.telemetry != nullptr) {
        ++context.telemetry->retries;
        context.telemetry->backoffSeconds += delay;
      }
      backoffDelayHistogram().observe(delay);
      backoffPhaseGauge().add(delay);
      obs::logEvent(obs::LogLevel::kInfo, "llm", "retry",
                    [&](util::JsonObjectBuilder& fields) {
                      fields.addInt("attempt", attempt);
                      fields.addDouble("delay_s", delay, 3);
                      fields.add("last_error", last.toString());
                    });
      sleeper_(delay);
    }

    // Circuit gate: an open circuit fails attempts fast until the cooldown
    // admits a half-open probe — and only ONE caller may be that probe.
    bool amProbe = false;
    if (context.telemetry != nullptr) ++context.telemetry->attempts;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.attempts;
      if (state_ == BreakerState::Open) {
        if (openFastFails_ < breaker_.cooldownAttempts) {
          ++openFastFails_;
          ++stats_.breakerFastFails;
          last = util::Status(util::StatusCode::kUnavailable, "circuit open");
          continue;
        }
        state_ = BreakerState::HalfOpen;
        probeInFlight_ = true;
        amProbe = true;
        obs::logEvent(obs::LogLevel::kInfo, "llm", "breaker_half_open");
      } else if (state_ == BreakerState::HalfOpen) {
        if (probeInFlight_) {
          // Someone else's probe is in flight: fail fast rather than
          // stampede a backend that is still proving it recovered.
          ++stats_.probeFastFails;
          ++stats_.breakerFastFails;
          last = util::Status(util::StatusCode::kUnavailable,
                              "half-open probe in flight");
          continue;
        }
        probeInFlight_ = true;
        amProbe = true;
      }
    }

    util::Result<std::string> result = request();

    // Validation runs outside the lock (ast::parse is the heavy part).
    util::Status verdict = util::Status::ok();
    if (result.ok()) {
      verdict = validate(result.value());
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (amProbe) probeInFlight_ = false;
      if (result.ok() && verdict.isOk()) {
        noteSuccessLocked();
        return result;
      }
      if (result.ok()) {
        ++stats_.validationFailures;
        validationFailuresCounter().add();
        obs::logEvent(obs::LogLevel::kDebug, "llm", "validation_failure",
                      [&](util::JsonObjectBuilder& fields) {
                        fields.add("error", verdict.toString());
                      });
        last = verdict;
      } else {
        last = result.status();
      }
      noteFailureLocked();
    }
    if (!last.retryable()) return last;
  }
  // A ladder that died timing out surfaces AS a timeout: fleet-level
  // routing (sharded_client.hpp) treats timeout finals as the signature of
  // a slow shard, and wrapping them as kResourceExhausted would hide that.
  if (last.code() == util::StatusCode::kTimeout ||
      last.code() == util::StatusCode::kDeadlineExceeded) {
    return util::Status(last.code(),
                        "attempts exhausted; last error: " + last.toString());
  }
  return util::Status(util::StatusCode::kResourceExhausted,
                      "attempts exhausted; last error: " + last.toString());
}

util::Result<std::string> ResilientClient::tryGenerate(
    const corpus::Challenge& challenge) {
  CallContext unlimited;
  return tryGenerate(challenge, unlimited);
}

util::Result<std::string> ResilientClient::tryTransform(
    const std::string& source) {
  CallContext unlimited;
  return tryTransform(source, unlimited);
}

util::Result<std::string> ResilientClient::tryGenerate(
    const corpus::Challenge& challenge, CallContext& context) {
  return perform([&] { return inner_.tryGenerate(challenge, context); },
                 context);
}

util::Result<std::string> ResilientClient::tryTransform(
    const std::string& source, CallContext& context) {
  return perform([&] { return inner_.tryTransform(source, context); },
                 context);
}

}  // namespace sca::llm
