#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace sca::runtime {
namespace {

thread_local bool tlsOnWorkerThread = false;

// Pool telemetry is kRuntime: how many tasks exist, how deep the queues
// get and who steals what all depend on SCA_THREADS and scheduling luck,
// so none of it may enter the byte-comparable stable section.
obs::Counter& tasksSubmittedCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "pool_tasks_submitted", obs::Stability::kRuntime);
  return counter;
}

obs::Gauge& queueDepthGauge() {
  static obs::Gauge gauge = obs::MetricsRegistry::global().gauge(
      "pool_queue_depth_max", obs::GaugeKind::kMax);
  return gauge;
}

obs::Counter& tasksStolenCounter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "pool_tasks_stolen", obs::Stability::kRuntime);
  return counter;
}

obs::Histogram& taskMicrosHistogram() {
  static obs::Histogram histogram = obs::MetricsRegistry::global().histogram(
      "pool_task_us", {10, 100, 1000, 10000, 100000, 1000000},
      obs::Stability::kRuntime);
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threadCount) {
  if (threadCount == 0) threadCount = 1;
  queues_.reserve(threadCount);
  for (std::size_t i = 0; i < threadCount; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
  workers_.reserve(threadCount);
  for (std::size_t i = 0; i < threadCount; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
  obs::logEvent(obs::LogLevel::kInfo, "runtime", "pool_start",
                [&](util::JsonObjectBuilder& fields) {
                  fields.addUint("threads", threadCount);
                });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wakeMutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target = 0;
  {
    std::lock_guard<std::mutex> lock(wakeMutex_);
    target = nextQueue_;
    nextQueue_ = (nextQueue_ + 1) % queues_.size();
    ++pendingTasks_;
    queueDepthGauge().recordMax(static_cast<double>(pendingTasks_));
  }
  tasksSubmittedCounter().add();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::tryTake(std::size_t self, std::function<void()>& task) {
  // Own queue first (back = most recently submitted, cache-warm)...
  {
    WorkQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // ...then steal from the front of a peer's queue (oldest task — the one
  // most likely to be a large unstarted chunk).
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkQueue& victim = *queues_[(self + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      tasksStolenCounter().add();
      return true;
    }
  }
  return false;
}

namespace {

// CI watchdog hook: SCA_OBS_TEST_STALL_MS wedges the FIRST pool task of the
// process for that many milliseconds (inside its pool_task span), simulating
// a hung task so the flight-recorder stall watchdog can be exercised
// end-to-end. Purely a sleep — outputs stay byte-identical.
void applyPoolStallTestHook() {
  static const std::size_t stallMs =
      util::envTestHook("SCA_OBS_TEST_STALL_MS", 60000);
  if (stallMs == 0) return;
  static std::atomic<bool> fired{false};
  if (fired.exchange(true, std::memory_order_relaxed)) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(stallMs));
}

}  // namespace

void ThreadPool::workerLoop(std::size_t self) {
  tlsOnWorkerThread = true;
  for (;;) {
    std::function<void()> task;
    if (tryTake(self, task)) {
      {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        --pendingTasks_;
      }
      {
        obs::Span span("pool_task", "runtime");
        applyPoolStallTestHook();
        const std::uint64_t startNs = obs::Tracer::global().nowNs();
        task();
        taskMicrosHistogram().observe(
            static_cast<double>(obs::Tracer::global().nowNs() - startNs) /
            1000.0);
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wakeMutex_);
    wake_.wait(lock, [this] { return stopping_ || pendingTasks_ > 0; });
    if (stopping_ && pendingTasks_ == 0) return;
  }
}

bool ThreadPool::onWorkerThread() noexcept { return tlsOnWorkerThread; }

std::size_t configuredThreadCount() {
  // Absurd requests are clamped rather than honoured: std::thread throws
  // std::system_error once the OS runs out of thread resources, and a
  // mistyped SCA_THREADS should not abort the process.
  constexpr long kMaxThreads = 512;
  const char* raw = std::getenv("SCA_THREADS");
  if (raw != nullptr && *raw != '\0') {
    const long parsed = std::strtol(raw, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::size_t>(std::min(parsed, kMaxThreads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

std::mutex gPoolMutex;
std::unique_ptr<ThreadPool> gPool;

}  // namespace

ThreadPool& globalPool() {
  std::lock_guard<std::mutex> lock(gPoolMutex);
  if (gPool == nullptr) {
    gPool = std::make_unique<ThreadPool>(configuredThreadCount());
  }
  return *gPool;
}

void setGlobalThreadCount(std::size_t threadCount) {
  std::lock_guard<std::mutex> lock(gPoolMutex);
  gPool.reset();  // joins the old workers before the new pool spins up
  gPool = std::make_unique<ThreadPool>(
      threadCount == 0 ? configuredThreadCount() : threadCount);
}

}  // namespace sca::runtime
