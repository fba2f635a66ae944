// Tests for the resilience layer: Status/Result plumbing, deterministic
// fault injection, retry/backoff schedules, the circuit breaker state
// machine and output validation.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "ast/parser.hpp"
#include "llm/client.hpp"
#include "llm/fault_injection.hpp"
#include "llm/resilient_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "util/status.hpp"

namespace sca::llm {
namespace {

/// A minimal completion that passes the resilient validator.
constexpr std::string_view kGoodSource =
    "int main() {\n    int x = 1;\n    return 0;\n}\n";

/// Scripted backend: fails the first `failuresBeforeSuccess` attempts with
/// `failure`, then succeeds forever with kGoodSource. Counts attempts.
class ScriptedClient : public LlmClient {
 public:
  explicit ScriptedClient(int failuresBeforeSuccess = 0,
                          util::Status failure = util::Status(
                              util::StatusCode::kTimeout, "scripted"))
      : remainingFailures_(failuresBeforeSuccess),
        failure_(std::move(failure)) {}

  util::Result<std::string> tryGenerate(const corpus::Challenge&) override {
    return next();
  }
  util::Result<std::string> tryTransform(const std::string&) override {
    return next();
  }
  [[nodiscard]] std::string_view describe() const override {
    return "scripted";
  }

  int attempts = 0;

 private:
  util::Result<std::string> next() {
    ++attempts;
    if (remainingFailures_ > 0) {
      --remainingFailures_;
      return failure_;
    }
    return std::string(kGoodSource);
  }

  int remainingFailures_;
  util::Status failure_;
};

/// Fails `failures` calls in a row, then succeeds once, and repeats.
class CyclingClient : public LlmClient {
 public:
  explicit CyclingClient(int failures) : failures_(failures) {}

  util::Result<std::string> tryGenerate(const corpus::Challenge&) override {
    return next();
  }
  util::Result<std::string> tryTransform(const std::string&) override {
    return next();
  }
  [[nodiscard]] std::string_view describe() const override {
    return "cycling";
  }

  int attempts = 0;

 private:
  util::Result<std::string> next() {
    if (attempts++ % (failures_ + 1) < failures_) {
      return util::Status(util::StatusCode::kTimeout, "cycling");
    }
    return std::string(kGoodSource);
  }

  int failures_;
};

/// A backend that always fails — for budget and breaker tests.
class DeadClient : public LlmClient {
 public:
  util::Result<std::string> tryGenerate(const corpus::Challenge&) override {
    ++attempts;
    return util::Status(util::StatusCode::kTimeout, "dead");
  }
  util::Result<std::string> tryTransform(const std::string&) override {
    ++attempts;
    return util::Status(util::StatusCode::kTimeout, "dead");
  }
  [[nodiscard]] std::string_view describe() const override { return "dead"; }
  int attempts = 0;
};

RetryPolicy fastRetry(std::uint64_t seed = 7) {
  RetryPolicy policy;
  policy.seed = seed;
  return policy;
}

// ----------------------------------------------------------- Status/Result

TEST(Status, DefaultIsOkAndCodesStringify) {
  EXPECT_TRUE(util::Status().isOk());
  const util::Status s(util::StatusCode::kRateLimited, "429");
  EXPECT_FALSE(s.isOk());
  EXPECT_EQ(s.toString(), "rate_limited: 429");
  EXPECT_EQ(util::statusCodeName(util::StatusCode::kDataLoss), "data_loss");
}

TEST(Status, RetryableTaxonomy) {
  using util::StatusCode;
  EXPECT_TRUE(util::isRetryable(StatusCode::kTimeout));
  EXPECT_TRUE(util::isRetryable(StatusCode::kRateLimited));
  EXPECT_TRUE(util::isRetryable(StatusCode::kInvalidOutput));
  EXPECT_FALSE(util::isRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(util::isRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(util::isRetryable(StatusCode::kDataLoss));
}

TEST(Result, ValueAndErrorPaths) {
  util::Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.valueOr(-1), 42);

  util::Result<int> bad(util::Status(util::StatusCode::kTimeout, "t"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kTimeout);
  EXPECT_EQ(bad.valueOr(-1), -1);
}

// ------------------------------------------------------------ fault layer

TEST(FaultInjection, ScaledMixSumsToTotal) {
  const FaultOptions options = FaultOptions::scaled(0.05, 1);
  EXPECT_NEAR(options.totalRate(), 0.05, 1e-12);
  EXPECT_GT(options.timeoutRate, 0.0);
  EXPECT_GT(options.garbageRate, 0.0);
}

TEST(FaultInjection, DeterministicUnderFixedSeed) {
  for (int round = 0; round < 2; ++round) {
    ScriptedClient innerA;
    ScriptedClient innerB;
    FaultInjectingClient a(innerA, FaultOptions::scaled(0.5, 99));
    FaultInjectingClient b(innerB, FaultOptions::scaled(0.5, 99));
    for (int i = 0; i < 64; ++i) {
      const auto ra = a.tryTransform("int main() {}");
      const auto rb = b.tryTransform("int main() {}");
      ASSERT_EQ(ra.ok(), rb.ok()) << "attempt " << i;
      if (ra.ok()) {
        EXPECT_EQ(ra.value(), rb.value());
      } else {
        EXPECT_EQ(ra.status().code(), rb.status().code());
      }
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
  }
}

TEST(FaultInjection, PreCallFaultsNeverTouchTheModel) {
  ScriptedClient inner;
  FaultOptions options;
  options.seed = 3;
  options.timeoutRate = 0.6;
  options.rateLimitRate = 0.4;  // every attempt faults before the call
  FaultInjectingClient client(inner, options);
  for (int i = 0; i < 32; ++i) {
    const auto result = client.tryTransform("int main() {}");
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(inner.attempts, 0);
}

TEST(FaultInjection, CorruptedCompletionIsStashedAndReplayed) {
  ScriptedClient inner;
  FaultOptions options;
  options.seed = 11;
  options.garbageRate = 1.0;  // first attempt always garbles
  FaultInjectingClient client(inner, options);

  const auto bad = client.tryTransform("int main() {}");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad.value(), kGoodSource);
  EXPECT_EQ(inner.attempts, 1);

  // The retry of the same request is served the stashed good completion
  // without advancing the model again.
  const auto replay = client.tryTransform("int main() {}");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value(), kGoodSource);
  EXPECT_EQ(inner.attempts, 1);
}

TEST(FaultInjection, CorruptionsNeverParseClean) {
  SyntheticLlm llm([] {
    LlmOptions o;
    o.year = 2018;
    o.seed = 21;
    return o;
  }());
  const std::string good = llm.generate(corpus::challengeById("race"));
  ASSERT_TRUE(ast::parse(good).clean);
  for (const double fraction : {0.0, 0.3, 0.5, 0.7, 0.99}) {
    const std::string cut =
        FaultInjectingClient::truncateOutput(good, fraction);
    EXPECT_FALSE(ast::parse(cut).clean && !cut.empty())
        << "fraction " << fraction;
  }
  EXPECT_FALSE(ast::parse(FaultInjectingClient::garbleOutput(good)).clean);
}

// ------------------------------------------------------------- slow mode

TEST(FaultInjection, SlowModeWithinBudgetSucceedsAndChargesLatency) {
  ScriptedClient inner;
  FaultOptions faults;
  faults.seed = 11;
  faults.slowRate = 1.0;
  faults.slowLatencySeconds = 30.0;
  FaultInjectingClient faulty(inner, faults);

  CallContext context = CallContext::withDeadline(100.0);
  const auto result = faulty.tryTransform("x", context);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), kGoodSource);
  EXPECT_DOUBLE_EQ(context.chargedSeconds, 30.0);
  EXPECT_EQ(inner.attempts, 1);
}

TEST(FaultInjection, AttemptTimeoutHangsUpEverySlowDeliveryAttempt) {
  // Attempt timeout below the injected latency: the caller hangs up at the
  // 20 s mark even though the request has ample budget, and the RETRY of
  // the stashed delivery rides the same slow wire — it times out again.
  ScriptedClient inner;
  FaultOptions faults;
  faults.seed = 11;
  faults.slowRate = 1.0;
  faults.slowLatencySeconds = 30.0;
  faults.attemptTimeoutSeconds = 20.0;
  FaultInjectingClient faulty(inner, faults);

  CallContext context = CallContext::withDeadline(1000.0);
  const auto first = faulty.tryTransform("x", context);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), util::StatusCode::kTimeout);
  EXPECT_DOUBLE_EQ(context.chargedSeconds, 20.0);

  const auto second = faulty.tryTransform("x", context);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kTimeout);
  EXPECT_DOUBLE_EQ(context.chargedSeconds, 40.0);
  // The model advanced exactly once: retries replay the stash, they never
  // regenerate the completion.
  EXPECT_EQ(inner.attempts, 1);
}

TEST(FaultInjection, SlowStashReplayDeliversTheModelsOnlyCompletion) {
  // Deadline blown on the first delivery, retried with a fresh budget: the
  // stashed completion arrives (paying the slow wire again) and is byte-
  // identical to what a healthy model would have produced — the model's
  // RNG advanced exactly once.
  LlmOptions options;
  options.year = 2017;
  options.seed = 21;
  SyntheticLlm model(options);
  SyntheticLlm twin(options);
  const std::string input =
      twin.generate(corpus::challengeById("race"));
  const std::string source = model.generate(corpus::challengeById("race"));

  FaultOptions faults;
  faults.seed = 11;
  faults.slowRate = 1.0;
  faults.slowLatencySeconds = 30.0;
  FaultInjectingClient faulty(model, faults);

  CallContext tight = CallContext::withDeadline(10.0);
  const auto blown = faulty.tryTransform(source, tight);
  ASSERT_FALSE(blown.ok());
  EXPECT_EQ(blown.status().code(), util::StatusCode::kTimeout);

  CallContext fresh = CallContext::withDeadline(100.0);
  const auto delivered = faulty.tryTransform(source, fresh);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered.value(), twin.transform(input));
}

TEST(ResilientClient, SlowShardLadderSurfacesAsTimeout) {
  // Every attempt of the ladder hangs up at the attempt timeout; the
  // exhausted ladder must surface AS a timeout (not kResourceExhausted) —
  // that classification is what feeds fleet-level timeout ejection.
  ScriptedClient inner;
  FaultOptions faults;
  faults.seed = 11;
  faults.slowRate = 1.0;
  faults.slowLatencySeconds = 30.0;
  faults.attemptTimeoutSeconds = 20.0;
  FaultInjectingClient faulty(inner, faults);
  RetryPolicy retry = fastRetry();
  retry.maxAttempts = 3;
  ResilientClient client(faulty, retry);

  CallContext context = CallContext::withDeadline(1000.0);
  const auto result = client.tryTransform("x", context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kTimeout);
  EXPECT_EQ(inner.attempts, 1);          // stash replayed, model advanced once
  EXPECT_GE(context.chargedSeconds, 60.0);  // three 20 s hang-ups + backoff
}

TEST(ResilientClient, DeadlineStopsTheRetryLadder) {
  DeadClient inner;
  ResilientClient client(inner, fastRetry());
  CallContext context = CallContext::withDeadline(1.0);
  const auto result = client.tryTransform("x", context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_GE(client.stats().deadlineStops, 1u);
  // The ladder was cut short: the deadline could not cover the next
  // backoff delay, so the full attempt schedule never ran.
  EXPECT_LT(inner.attempts, 6);
}

// -------------------------------------------------------------- retries

TEST(ResilientClient, RetriesUntilSuccess) {
  ScriptedClient inner(3);
  ResilientClient client(inner, fastRetry());
  const auto result = client.tryTransform("x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), kGoodSource);
  EXPECT_EQ(inner.attempts, 4);
  EXPECT_EQ(client.stats().retries, 3u);
}

TEST(ResilientClient, NonRetryableFailureIsFinalAfterOneAttempt) {
  // A request the backend rejects as malformed fails the same way on every
  // attempt, so the ladder stops at once with the backend's own Status and
  // spends no retry budget.
  ScriptedClient inner(
      1, util::Status(util::StatusCode::kInvalidArgument, "bad request"));
  ResilientClient client(inner, fastRetry());
  const auto result = client.tryTransform("x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(inner.attempts, 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(ResilientClient, BackoffScheduleIsDeterministicUnderFixedSeed) {
  ScriptedClient innerA(4);
  ScriptedClient innerB(4);
  ResilientClient a(innerA, fastRetry(123));
  ResilientClient b(innerB, fastRetry(123));
  ASSERT_TRUE(a.tryTransform("x").ok());
  ASSERT_TRUE(b.tryTransform("x").ok());
  ASSERT_EQ(a.backoffLog().size(), 4u);
  EXPECT_EQ(a.backoffLog(), b.backoffLog());

  // A different seed jitters differently around the same base curve.
  ScriptedClient innerC(4);
  ResilientClient c(innerC, fastRetry(456));
  ASSERT_TRUE(c.tryTransform("x").ok());
  EXPECT_NE(a.backoffLog(), c.backoffLog());
}

TEST(ResilientClient, BackoffCurveIsExponentialAndCapped) {
  ScriptedClient inner;
  RetryPolicy policy = fastRetry();
  policy.baseDelaySeconds = 1.0;
  policy.backoffMultiplier = 2.0;
  policy.maxDelaySeconds = 8.0;
  ResilientClient client(inner, policy);
  EXPECT_DOUBLE_EQ(client.baseDelayFor(0), 1.0);
  EXPECT_DOUBLE_EQ(client.baseDelayFor(1), 2.0);
  EXPECT_DOUBLE_EQ(client.baseDelayFor(2), 4.0);
  EXPECT_DOUBLE_EQ(client.baseDelayFor(3), 8.0);
  EXPECT_DOUBLE_EQ(client.baseDelayFor(7), 8.0);  // capped

  // Jitter stays inside the configured band around the base curve.
  ScriptedClient flaky(3);
  ResilientClient jittered(flaky, policy);
  ASSERT_TRUE(jittered.tryTransform("x").ok());
  for (std::size_t i = 0; i < jittered.backoffLog().size(); ++i) {
    const double base = jittered.baseDelayFor(static_cast<int>(i));
    EXPECT_GE(jittered.backoffLog()[i],
              base * (1.0 - policy.jitterFraction));
    EXPECT_LE(jittered.backoffLog()[i],
              base * (1.0 + policy.jitterFraction));
  }
}

TEST(ResilientClient, SleeperReceivesEveryBackoffDelay) {
  ScriptedClient inner(2);
  ResilientClient client(inner, fastRetry());
  std::vector<double> slept;
  client.setSleeper([&](double seconds) { slept.push_back(seconds); });
  ASSERT_TRUE(client.tryTransform("x").ok());
  EXPECT_EQ(slept, client.backoffLog());
}

TEST(ResilientClient, RetryBudgetExhaustionIsFinal) {
  DeadClient inner;
  RetryPolicy policy = fastRetry();
  policy.maxAttempts = 4;
  policy.retryBudget = 5;
  ResilientClient client(inner, policy);

  // First request: 4 attempts, 3 retries. Second request: budget allows 2
  // more retries, then kResourceExhausted.
  const auto first = client.tryTransform("x");
  EXPECT_FALSE(first.ok());
  const auto second = client.tryTransform("x");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(client.stats().retries, 5u);
  EXPECT_EQ(client.stats().budgetExhaustions, 1u);

  // Budget is spent: the next failure is immediately final.
  const int attemptsBefore = inner.attempts;
  const auto third = client.tryTransform("x");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(inner.attempts, attemptsBefore + 1);
}

// ------------------------------------------------------- circuit breaker

TEST(ResilientClient, BreakerOpensHalfOpensAndCloses) {
  // 12 failures then success; threshold 3, cooldown 2, enough attempts for
  // the whole arc to play out inside retry loops.
  ScriptedClient inner(12);
  RetryPolicy retry = fastRetry();
  retry.maxAttempts = 40;
  retry.retryBudget = 100;
  BreakerPolicy breaker;
  breaker.failureThreshold = 3;
  breaker.cooldownAttempts = 2;
  ResilientClient client(inner, retry, breaker);

  EXPECT_EQ(client.breakerState(), ResilientClient::BreakerState::Closed);
  const auto result = client.tryTransform("x");
  ASSERT_TRUE(result.ok());
  // Success closes the circuit again...
  EXPECT_EQ(client.breakerState(), ResilientClient::BreakerState::Closed);
  // ...but the arc passed through open at least once, fast-failing while
  // open instead of hammering the backend.
  EXPECT_GE(client.stats().breakerOpens, 1u);
  EXPECT_GE(client.stats().breakerFastFails, 1u);
  // Fast-fails do not reach the backend: 12 failures + probes + 1 success.
  EXPECT_LT(inner.attempts,
            static_cast<int>(client.stats().attempts));
}

TEST(ResilientClient, SuccessResetsTheFailureStreak) {
  // Every request fails twice and then succeeds: each run of failures is
  // one short of the threshold, so the circuit never opens, however many
  // runs there are in total.
  CyclingClient inner(2);
  BreakerPolicy breaker;
  breaker.failureThreshold = 3;
  ResilientClient client(inner, fastRetry(), breaker);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.tryTransform("x").ok()) << "request " << i;
  }
  EXPECT_EQ(client.stats().breakerOpens, 0u);
  EXPECT_EQ(client.breakerState(), ResilientClient::BreakerState::Closed);
  EXPECT_EQ(inner.attempts, 30);
}

TEST(ResilientClient, FailedProbeReopensTheCircuit) {
  // threshold 2: two failures open it; cooldown 1: third attempt is the
  // half-open probe, which also fails -> straight back to open.
  DeadClient inner;
  RetryPolicy retry = fastRetry();
  retry.maxAttempts = 4;  // failures: real, real (open), fast-fail, probe
  BreakerPolicy breaker;
  breaker.failureThreshold = 2;
  breaker.cooldownAttempts = 1;
  ResilientClient client(inner, retry, breaker);
  const auto result = client.tryTransform("x");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.breakerState(), ResilientClient::BreakerState::Open);
  EXPECT_EQ(inner.attempts, 3);  // fast-fail attempt never reached it
}

/// Fails the first N backend calls, then BLOCKS the next one until the
/// test releases it — the window in which concurrent callers must observe
/// "half-open probe in flight" and fail fast instead of stampeding.
class GatedClient : public LlmClient {
 public:
  explicit GatedClient(int failuresBeforeGate)
      : failuresBeforeGate_(failuresBeforeGate) {}

  util::Result<std::string> tryGenerate(const corpus::Challenge&) override {
    return next();
  }
  util::Result<std::string> tryTransform(const std::string&) override {
    return next();
  }
  [[nodiscard]] std::string_view describe() const override { return "gated"; }

  void waitForProbe() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return probeArrived_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  util::Result<std::string> next() {
    std::unique_lock<std::mutex> lock(mu_);
    const int call = ++calls_;
    if (call <= failuresBeforeGate_) {
      return util::Status(util::StatusCode::kTimeout, "gated failure");
    }
    if (call == failuresBeforeGate_ + 1) {
      probeArrived_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return std::string(kGoodSource);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int failuresBeforeGate_;
  int calls_ = 0;
  bool probeArrived_ = false;
  bool released_ = false;
};

TEST(ResilientClient, HalfOpenAdmitsExactlyOneProbeUnderConcurrency) {
  // Two failures open the circuit; the cooldown admits exactly one probe,
  // which the gate holds in flight while a second caller arrives.
  GatedClient inner(2);
  RetryPolicy retry = fastRetry();
  retry.maxAttempts = 1;  // one attempt per call: the test drives the arc
  BreakerPolicy breaker;
  breaker.failureThreshold = 2;
  breaker.cooldownAttempts = 1;
  ResilientClient client(inner, retry, breaker);

  EXPECT_FALSE(client.tryTransform("x").ok());
  EXPECT_FALSE(client.tryTransform("x").ok());
  ASSERT_EQ(client.breakerState(), ResilientClient::BreakerState::Open);
  // Cooldown fast-fail: never reaches the backend.
  EXPECT_FALSE(client.tryTransform("x").ok());

  std::optional<util::Result<std::string>> probeResult;
  std::thread probe([&] { probeResult = client.tryTransform("x"); });
  inner.waitForProbe();

  // While the probe is in flight, a concurrent caller is refused rather
  // than allowed to stampede the recovering backend.
  const auto concurrent = client.tryTransform("x");
  EXPECT_FALSE(concurrent.ok());
  EXPECT_GE(client.stats().probeFastFails, 1u);

  inner.release();
  probe.join();
  ASSERT_TRUE(probeResult.has_value());
  EXPECT_TRUE(probeResult->ok());
  EXPECT_EQ(client.breakerState(), ResilientClient::BreakerState::Closed);
}

// ------------------------------------------------------------ validation

TEST(ResilientClient, RejectsRefusalsAndGarbageThenRecovers) {
  SyntheticLlm llm([] {
    LlmOptions o;
    o.year = 2017;
    o.seed = 5;
    return o;
  }());
  FaultOptions faults;
  faults.seed = 17;
  faults.emptyRate = 0.3;
  faults.garbageRate = 0.3;
  FaultInjectingClient faulty(llm, faults);
  ResilientClient client(faulty, fastRetry());

  const std::string original = llm.generate(corpus::challengeById("race"));
  for (int i = 0; i < 20; ++i) {
    const auto result = client.tryTransform(original);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(ast::parse(result.value()).clean);
  }
  EXPECT_GT(client.stats().validationFailures, 0u);
}

}  // namespace
}  // namespace sca::llm
