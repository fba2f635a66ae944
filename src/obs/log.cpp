#include "obs/log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <mutex>

#include "obs/trace.hpp"

namespace sca::obs {

LogLevel parseLogLevel(std::string_view text, LogLevel fallback) {
  const std::string lowered = util::toLower(text);
  if (lowered == "debug") return LogLevel::kDebug;
  if (lowered == "info") return LogLevel::kInfo;
  if (lowered == "warn" || lowered == "warning") return LogLevel::kWarn;
  if (lowered == "error") return LogLevel::kError;
  return fallback;
}

std::string_view logLevelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

struct EventLog::Impl {
  std::mutex mutex;  // guards path/fd lifecycle, not the write itself
  std::string path;
  int fd = -1;

  void closeLocked() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  /// Opens (or reuses) the O_APPEND descriptor. -1 on failure.
  int descriptorLocked() {
    if (fd >= 0 || path.empty()) return fd;
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    return fd;
  }
};

EventLog::EventLog() : impl_(new Impl) {
  const char* path = std::getenv("SCA_LOG");
  if (path == nullptr || *path == '\0') return;
  impl_->path = path;
  if (const char* level = std::getenv("SCA_LOG_LEVEL");
      level != nullptr && *level != '\0') {
    minLevel_.store(static_cast<int>(parseLogLevel(level)),
                    std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

EventLog::~EventLog() = default;  // never runs for global()

EventLog& EventLog::global() {
  // Intentionally leaked, like the registry and the tracer: worker threads
  // may emit events during static teardown.
  static EventLog* instance = new EventLog();
  return *instance;
}

const std::string& EventLog::path() const { return impl_->path; }

void EventLog::configure(std::string path, LogLevel minLevel) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->closeLocked();
  impl_->path = std::move(path);
  minLevel_.store(static_cast<int>(minLevel), std::memory_order_relaxed);
  enabled_.store(!impl_->path.empty(), std::memory_order_relaxed);
}

void EventLog::write(LogLevel level, std::string_view component,
                     std::string_view event, std::string_view fieldsJson) {
  util::JsonObjectBuilder record;
  record.addUint("ts_ns", Tracer::global().nowNs());
  record.add("level", logLevelName(level));
  record.addUint("tid", flight::threadId());
  record.add("span", util::toHex64(Tracer::currentSpanId()));
  record.add("component", component);
  record.add("event", event);
  if (!fieldsJson.empty() && fieldsJson != "{}") {
    record.addRaw("fields", fieldsJson);
  }
  std::string line = record.str();
  line += '\n';

  std::lock_guard<std::mutex> lock(impl_->mutex);
  const int fd = impl_->descriptorLocked();
  if (fd < 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // One write() for the whole line: O_APPEND interleaves records from
  // concurrent emitters (threads or processes) line-by-line.
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0 || static_cast<std::size_t>(n) != line.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace sca::obs
