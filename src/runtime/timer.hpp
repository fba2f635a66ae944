// Phase timing for the pipeline stages.
//
// A PhaseTimer scope records its wall-clock seconds under a phase name
// ("corpus_build", "feature_extract", "forest_train", "predict", ...) as
// the obs::MetricsRegistry sum-gauge obs::kPhaseGaugePrefix + phase. The
// run manifest's "phases" section, the history record and `sca_cli
// metrics` all read those gauges — one store, no second bookkeeping.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sca::runtime {

namespace detail {
/// CI slowdown-injection hook: sleeps SCA_OBS_TEST_DELAY_MS milliseconds
/// (cached; 0/unset = free no-op). Called inside every PhaseTimer scope so
/// the injected delay lands in the phase's recorded wall time — the lever
/// tools/ci.sh uses to prove `sca_cli history check` catches a regression.
void applyPhaseTestDelay();
}  // namespace detail

/// RAII: adds the scope's wall time to the phase's registry gauge on
/// destruction, and brackets the scope with an obs::Span so phases show up
/// in Chrome traces with parent linkage when SCA_TRACE is set.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase)
      : span_(phase, "phase"),
        gauge_(obs::MetricsRegistry::global().gauge(
            std::string(obs::kPhaseGaugePrefix) + phase)),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    detail::applyPhaseTestDelay();
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    gauge_.add(std::chrono::duration<double>(elapsed).count());
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Span span_;  // first: opens before timing starts, closes after
  obs::Gauge gauge_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sca::runtime
