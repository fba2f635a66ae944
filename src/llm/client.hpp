// LlmClient: the seam between the serving fleet and whatever produces
// completions.
//
// The paper's pipeline makes 20,000+ ChatGPT API calls (§IV-B: generation
// plus 50-step NCT/CT schedules per setting). A real backend fails —
// timeouts, 429s, refusals, truncated completions, rewrites that no longer
// parse. The Table II build (pipelines.hpp) drives the in-process model
// directly, because it never fails; the serving fleet (sharded_client.hpp)
// talks to this interface instead of to a concrete model, and resilience
// composes as decorators:
//
//   SyntheticLlm                  the in-process model (always succeeds)
//     ^ FaultInjectingClient      deterministically injects API failures
//       ^ ResilientClient         retry/backoff, circuit breaker, budget,
//                                 output validation
//
// Every method returns Result<std::string>: an error Status is a failed
// API call, an OK value is whatever the backend produced — which may still
// be garbage, which is the validator's problem, not the transport's.
//
// Each method also has a CallContext-carrying overload (see
// call_context.hpp): the serving layer stamps requests with deadline
// budgets, and decorators that spend simulated time (retry backoff,
// injected slow responses) charge it and stop when it runs out. The
// context-free methods remain the primary interface — the default
// context overloads simply ignore the context, so a backend that knows
// nothing about deadlines keeps working unchanged.
#pragma once

#include <string>

#include "corpus/challenges.hpp"
#include "llm/call_context.hpp"
#include "util/status.hpp"

namespace sca::llm {

class LlmClient {
 public:
  virtual ~LlmClient() = default;

  /// "Write C++ code that solves this problem."
  [[nodiscard]] virtual util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) = 0;

  /// "Transform this code, keeping behaviour identical." (paper Fig. 1 (2))
  [[nodiscard]] virtual util::Result<std::string> tryTransform(
      const std::string& source) = 0;

  /// Deadline-aware variants. Decorators that account simulated time
  /// override these to charge `context` and honour its budget; the default
  /// forwards to the context-free method (a backend with no notion of
  /// deadlines never observes the context at all).
  [[nodiscard]] virtual util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge, CallContext& context) {
    (void)context;
    return tryGenerate(challenge);
  }
  [[nodiscard]] virtual util::Result<std::string> tryTransform(
      const std::string& source, CallContext& context) {
    (void)context;
    return tryTransform(source);
  }

  /// Short layer name for logs/telemetry ("synthetic", "faulty", ...).
  [[nodiscard]] virtual std::string_view describe() const = 0;
};

}  // namespace sca::llm
