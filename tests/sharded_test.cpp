// Tests for the sharded fleet layer: deterministic routing, failover
// byte-identity (including the failed-turn canonical-conversation rule),
// the ShardSet health fold (ejection / cooldown / probe / recovery), the
// honest health report, and the fleet's environment knobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "corpus/challenges.hpp"
#include "llm/call_context.hpp"
#include "llm/sharded_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

constexpr int kYear = 2017;

std::uint64_t chainSeed(int chain) {
  return util::combine64(util::hash64("sharded-test"),
                         static_cast<std::uint64_t>(chain));
}

/// The bare single-client conversation the fleet must reproduce byte for
/// byte: generate once, then transform the previous output.
std::vector<std::string> oracleConversation(std::uint64_t seed, int turns) {
  LlmOptions options;
  options.year = kYear;
  options.seed = seed;
  SyntheticLlm model(options);
  const auto challenges = corpus::challengesForYear(kYear);
  std::vector<std::string> out;
  out.push_back(model.generate(*challenges.front()));
  for (int turn = 1; turn < turns; ++turn) {
    out.push_back(model.transform(out.back()));
  }
  return out;
}

FleetOptions fleetOptions(int shards, double faultRate = 0.0) {
  FleetOptions options;
  options.shards = shards;
  options.faultRate = faultRate;
  options.year = kYear;
  return options;
}

// ------------------------------------------------------------- routing

TEST(ShardedClient, HealthyFleetMatchesSingleClientByteForByte) {
  ShardSet fleet(fleetOptions(4));
  const auto challenges = corpus::challengesForYear(kYear);
  for (int chain = 0; chain < 6; ++chain) {
    const std::uint64_t seed = chainSeed(chain);
    const std::vector<std::string> oracle = oracleConversation(seed, 5);

    ShardedClient client(fleet, seed);
    auto first = client.tryGenerate(*challenges.front());
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), oracle[0]);
    // Home routing is the chain seed alone.
    EXPECT_EQ(client.servingShard(), static_cast<int>(seed % 4));
    for (int turn = 1; turn < 5; ++turn) {
      auto next = client.tryTransform(
          oracle[static_cast<std::size_t>(turn - 1)]);
      ASSERT_TRUE(next.ok());
      EXPECT_EQ(next.value(), oracle[static_cast<std::size_t>(turn)]);
    }
    EXPECT_EQ(client.stats().failovers, 0u);
    fleet.fold(client.takeEvents());
  }
  EXPECT_EQ(fleet.stats().ejections, 0u);
}

TEST(ShardedClient, FailoverAfterKillIsByteIdentical) {
  ShardSet fleet(fleetOptions(2));
  const auto challenges = corpus::challengesForYear(kYear);
  const std::uint64_t seed = chainSeed(1);
  const std::vector<std::string> oracle = oracleConversation(seed, 6);

  ShardedClient client(fleet, seed);
  ASSERT_TRUE(client.tryGenerate(*challenges.front()).ok());
  ASSERT_TRUE(client.tryTransform(oracle[0]).ok());
  ASSERT_TRUE(client.tryTransform(oracle[1]).ok());
  const int home = client.servingShard();

  // The serving shard dies mid-conversation: the next turn re-homes after
  // replaying the full 3-turn prefix, and every byte still matches the
  // oracle — the model seed never depended on the shard.
  fleet.killShard(home);
  for (int turn = 3; turn < 6; ++turn) {
    auto next =
        client.tryTransform(oracle[static_cast<std::size_t>(turn - 1)]);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value(), oracle[static_cast<std::size_t>(turn)]);
  }
  EXPECT_NE(client.servingShard(), home);
  EXPECT_EQ(client.stats().failovers, 1u);
  EXPECT_EQ(client.stats().replayedTurns, 3u);
}

TEST(ShardedClient, FailedTurnStillAdvancesCanonicalConversation) {
  // One shard, no failover possible: a turn that times out surfaces to the
  // caller, but the CANONICAL conversation still advances — the next
  // successful turn must equal oracle position k, not k-1.
  ShardSet fleet(fleetOptions(1));
  const auto challenges = corpus::challengesForYear(kYear);
  const std::uint64_t seed = chainSeed(2);
  const std::vector<std::string> oracle = oracleConversation(seed, 3);

  ShardedClient client(fleet, seed);
  ASSERT_TRUE(client.tryGenerate(*challenges.front()).ok());

  fleet.slowShard(0);
  CallContext tight = CallContext::withDeadline(10.0);
  auto failed = client.tryTransform(oracle[0], tight);
  ASSERT_FALSE(failed.ok());

  fleet.slowShard(0, /*slowed=*/false);
  auto recovered = client.tryTransform(oracle[1]);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), oracle[2]);
  // The rebuild replayed both recorded turns, including the failed one.
  EXPECT_GE(client.stats().replayedTurns, 2u);
}

TEST(ShardedClient, AllShardsIneligibleIsUnavailable) {
  ShardSet fleet(fleetOptions(1));
  fleet.killShard(0);
  ShardedClient client(fleet, chainSeed(3));
  auto result = client.tryTransform("int main() { return 0; }\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
}

TEST(ShardedClient, HedgeWinMigratesConversationWithoutChangingBytes) {
  // The home shard is slowed but still correct (no attempt timeout, ample
  // deadline): its success charges the full injected latency, which trips
  // the hedge, and the fast shard takes the conversation over — bytes
  // unchanged, latency refunded.
  FleetOptions options = fleetOptions(2);
  options.policy.hedgeAfterSeconds = 5.0;
  options.policy.attemptTimeoutSeconds = 0.0;
  ShardSet fleet(options);
  const auto challenges = corpus::challengesForYear(kYear);
  const std::uint64_t seed = chainSeed(4);
  const std::vector<std::string> oracle = oracleConversation(seed, 2);

  ShardedClient client(fleet, seed);
  ASSERT_TRUE(client.tryGenerate(*challenges.front()).ok());
  const int home = client.servingShard();

  fleet.slowShard(home);
  CallContext context = CallContext::withDeadline(200.0);
  auto hedged = client.tryTransform(oracle[0], context);
  ASSERT_TRUE(hedged.ok());
  EXPECT_EQ(hedged.value(), oracle[1]);
  EXPECT_EQ(client.stats().hedges, 1u);
  EXPECT_EQ(client.stats().hedgeWins, 1u);
  EXPECT_NE(client.servingShard(), home);
  // The winner's latency replaced the straggler's.
  EXPECT_LT(context.chargedSeconds,
            options.policy.slowShardLatencySeconds);
}

// ------------------------------------------------------------ health fold

TEST(ShardSet, ConsecutiveTimeoutsEjectOnTheLowerThreshold) {
  ShardSet fleet(fleetOptions(2));
  const auto timeouts = std::vector<ShardEvent>{
      {0, ShardEvent::Kind::Timeout}, {0, ShardEvent::Kind::Timeout}};
  fleet.fold(timeouts);
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::Open);
  EXPECT_EQ(fleet.stats().ejections, 1u);
  EXPECT_EQ(fleet.stats().timeoutEjections, 1u);
}

TEST(ShardSet, ConsecutiveFailuresEjectViaTheFailurePath) {
  ShardSet fleet(fleetOptions(2));
  fleet.fold({{1, ShardEvent::Kind::Failure},
              {1, ShardEvent::Kind::Failure},
              {1, ShardEvent::Kind::Failure}});
  EXPECT_EQ(fleet.snapshot()[1].state, ShardState::Open);
  EXPECT_EQ(fleet.stats().ejections, 1u);
  EXPECT_EQ(fleet.stats().timeoutEjections, 0u);
}

TEST(ShardSet, SuccessResetsTheConsecutiveCounters) {
  ShardSet fleet(fleetOptions(1));
  fleet.fold({{0, ShardEvent::Kind::Timeout},
              {0, ShardEvent::Kind::Success},
              {0, ShardEvent::Kind::Timeout}});
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::Closed);
  EXPECT_EQ(fleet.stats().ejections, 0u);
}

TEST(ShardSet, CooldownProbeAndRecoveryCycle) {
  FleetOptions options = fleetOptions(2);
  options.policy.cooldownRequests = 3;
  ShardSet fleet(options);
  fleet.fold({{0, ShardEvent::Kind::Timeout}, {0, ShardEvent::Kind::Timeout}});
  ASSERT_EQ(fleet.snapshot()[0].state, ShardState::Open);

  // Cooldown is counted in routed-around requests: two skips keep it Open,
  // the third admits a probe.
  fleet.fold({{0, ShardEvent::Kind::Skipped}, {0, ShardEvent::Kind::Skipped}});
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::Open);
  fleet.fold({{0, ShardEvent::Kind::Skipped}});
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::HalfOpen);
  EXPECT_EQ(fleet.stats().probes, 1u);

  // A successful probe closes; a failed one would re-eject (below).
  fleet.fold({{0, ShardEvent::Kind::Success}});
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::Closed);
  EXPECT_EQ(fleet.stats().recoveries, 1u);
}

TEST(ShardSet, FailedProbeReEjectsImmediately) {
  FleetOptions options = fleetOptions(1);
  options.policy.cooldownRequests = 1;
  ShardSet fleet(options);
  fleet.fold({{0, ShardEvent::Kind::Timeout}, {0, ShardEvent::Kind::Timeout}});
  fleet.fold({{0, ShardEvent::Kind::Skipped}});
  ASSERT_EQ(fleet.snapshot()[0].state, ShardState::HalfOpen);
  fleet.fold({{0, ShardEvent::Kind::Timeout}});
  EXPECT_EQ(fleet.snapshot()[0].state, ShardState::Open);
  EXPECT_EQ(fleet.stats().ejections, 2u);
  EXPECT_EQ(fleet.stats().timeoutEjections, 2u);
}

TEST(ShardSet, HealthJsonReportsStateAndChaosFlags) {
  ShardSet fleet(fleetOptions(3));
  fleet.killShard(1);
  fleet.slowShard(2);
  const std::string json = fleet.healthJson();
  EXPECT_NE(json.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"closed\""), std::string::npos);
  EXPECT_NE(json.find("\"killed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"slowed\":true"), std::string::npos);
}

TEST(FleetOptions, EnvOverrides) {
  // The caller's values are put back at the end, so later tests in this
  // process see the environment they started with.
  const char* const names[] = {"SCA_SHARDS", "SCA_FAULT_RATE", "SCA_HEDGE_S"};
  std::vector<std::optional<std::string>> saved;
  for (const char* name : names) {
    const char* value = std::getenv(name);
    saved.push_back(value ? std::optional<std::string>(value) : std::nullopt);
    ::unsetenv(name);
  }

  const FleetOptions defaults = FleetOptions::fromEnv();
  EXPECT_EQ(defaults.shards, 1);
  EXPECT_EQ(defaults.faultRate, 0.0);
  EXPECT_EQ(defaults.policy.hedgeAfterSeconds, 0.0);

  ::setenv("SCA_SHARDS", "64", 1);
  ::setenv("SCA_FAULT_RATE", "0.05", 1);
  ::setenv("SCA_HEDGE_S", "0.3", 1);
  const FleetOptions set = FleetOptions::fromEnv();
  EXPECT_EQ(set.shards, 64);
  EXPECT_EQ(set.faultRate, 0.05);
  EXPECT_EQ(set.policy.hedgeAfterSeconds, 0.3);

  ::setenv("SCA_SHARDS", "", 1);  // empty still means unset
  ::setenv("SCA_FAULT_RATE", "0", 1);
  ::unsetenv("SCA_HEDGE_S");
  const FleetOptions fresh = FleetOptions::fromEnv();
  EXPECT_EQ(fresh.shards, 1);
  EXPECT_EQ(fresh.faultRate, 0.0);
  EXPECT_EQ(fresh.policy.hedgeAfterSeconds, 0.0);
  ::unsetenv("SCA_FAULT_RATE");

  // A malformed or out-of-range value throws, naming the variable and its
  // value.
  const auto error = []() -> std::string {
    try {
      (void)FleetOptions::fromEnv();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"SCA_SHARDS", "4x"},         {"SCA_SHARDS", "65"},
      {"SCA_SHARDS", "0"},          {"SCA_SHARDS", "-1"},
      {"SCA_FAULT_RATE", "0.05x"},  {"SCA_FAULT_RATE", "-1"},
      {"SCA_FAULT_RATE", "abc"},    {"SCA_FAULT_RATE", "inf"},
      {"SCA_HEDGE_S", "abc"},       {"SCA_HEDGE_S", "0"},
      {"SCA_HEDGE_S", "-1"},        {"SCA_HEDGE_S", "1e999"},
  };
  for (const auto& [name, value] : bad) {
    ::setenv(name, value, 1);
    EXPECT_NE(error().find(std::string(name) + "=" + value),
              std::string::npos)
        << name << "=" << value << ": " << error();
    ::unsetenv(name);
  }

  for (std::size_t i = 0; i < saved.size(); ++i) {
    if (saved[i]) ::setenv(names[i], saved[i]->c_str(), 1);
  }
}

}  // namespace
}  // namespace sca::llm
