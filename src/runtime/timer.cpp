#include "runtime/timer.hpp"

#include <cstdlib>
#include <thread>

namespace sca::runtime::detail {

void applyPhaseTestDelay() {
  static const int delayMs = [] {
    const char* env = std::getenv("SCA_OBS_TEST_DELAY_MS");
    return env != nullptr && *env != '\0' ? std::atoi(env) : 0;
  }();
  if (delayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
  }
}

}  // namespace sca::runtime::detail
