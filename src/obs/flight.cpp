#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::obs::flight {

namespace detail {
std::atomic<bool> gEnabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kNameWords = 5;
constexpr std::size_t kNameBytes = kNameWords * 8;  // 40
constexpr std::uint32_t kMaxActiveDepth = 24;
constexpr std::size_t kMaxRecords = 1024;
constexpr std::size_t kTraceChunk = 1024;
constexpr std::size_t kTraceChunks =
    Tracer::kMaxEventsPerThread / kTraceChunk;

// Slot fields are individually-relaxed atomics: the owning thread is the
// only writer, but the watchdog thread and the fatal-signal handler read
// concurrently, and lock-free atomic words keep those reads both race-free
// and async-signal-safe. A reader validates `seq` against the index it
// expects, so a slot overwritten mid-read is detected and skipped.
struct Slot {
  std::atomic<std::uint64_t> tsNs{0};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint32_t> tid{0};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::uint8_t> level{0};
  std::atomic<std::uint64_t> name[kNameWords]{};
};

struct ActiveSlot {
  std::atomic<std::uint64_t> sinceNs{0};
  std::atomic<std::uint64_t> name[kNameWords]{};
};

using detail::TracedSpan;
static_assert(sizeof(TracedSpan::name) == kNameBytes);

std::size_t gCapacity = 256;
std::atomic<detail::Record*> gRecords[kMaxRecords];
std::atomic<std::uint32_t> gRecordCount{0};

// Tracer::clear() advances the epoch; a record's trace list belongs to
// the epoch it was last reset in, and an owner that finds the epoch moved
// resets its list before appending. Clear and snapshot hold the mutex, so
// no reader is inside a list when its owner reuses the slots.
std::atomic<std::uint64_t> gTraceEpoch{0};
std::mutex gTraceReadMutex;

}  // namespace

namespace detail {

struct Record {
  std::uint32_t tid = 0;       // written once before publication
  std::uint32_t capacity = 0;  // ring slots, 0 = no ring; written once
  Slot* slots = nullptr;       // written once before publication
  std::atomic<std::uint64_t> head{0};
  std::atomic<bool> exited{false};
  std::atomic<std::uint32_t> depth{0};
  ActiveSlot active[kMaxActiveDepth];

  // Owner-only span linkage: the innermost live traced span and the
  // per-thread sequence that, under the tid, makes span ids unique.
  std::uint64_t innermostSpan = 0;
  std::uint64_t spanSequence = 0;
  // Trace list: entries [0, traced) of epoch traceEpoch are published.
  std::atomic<std::uint64_t> traceEpoch{0};
  std::atomic<std::uint32_t> traced{0};
  TracedSpan* chunks[kTraceChunks] = {};  // owner-allocated on demand
};

}  // namespace detail

namespace {

void warnMalformed(const char* variable, const char* value,
                   const char* keeping) {
  std::fprintf(stderr, "[flight] ignoring malformed %s=%s (keeping %s)\n",
               variable, value, keeping);
}

[[maybe_unused]] const bool gInitDone = [] {
  if (const char* raw = std::getenv("SCA_FLIGHT_EVENTS");
      raw != nullptr && *raw != '\0') {
    if (const std::optional<std::size_t> slots =
            detail::parseRingCapacity(raw)) {
      gCapacity = *slots;
    } else {
      warnMalformed("SCA_FLIGHT_EVENTS", raw, "256");
    }
  }
  detail::gEnabled.store(gCapacity > 0, std::memory_order_relaxed);
  return true;
}();

const Counter& droppedCounter() {
  static const Counter counter = MetricsRegistry::global().counter(
      "obs_events_dropped", Stability::kRuntime);
  return counter;
}

char sanitizeChar(char c) noexcept {
  const unsigned char u = static_cast<unsigned char>(c);
  if (u < 0x20 || u > 0x7e || c == '"' || c == '\\') return '_';
  return c;
}

void packName(std::string_view name, std::uint64_t out[kNameWords]) noexcept {
  char bytes[kNameBytes] = {};
  std::memcpy(bytes, name.data(), std::min(name.size(), kNameBytes));
  std::memcpy(out, bytes, kNameBytes);
}

// `out` must hold kNameBytes + 1; returns the NUL-terminated length. Ring
// names are sanitized on the way out, so the signal-safe dump writers can
// embed them in JSON without escaping; trace names come back verbatim.
std::size_t unpackName(const std::uint64_t words[kNameWords], char out[],
                       bool sanitize = true) noexcept {
  std::memcpy(out, words, kNameBytes);
  std::size_t len = 0;
  while (len < kNameBytes && out[len] != '\0') {
    if (sanitize) out[len] = sanitizeChar(out[len]);
    ++len;
  }
  out[len] = '\0';
  return len;
}

void loadName(const std::atomic<std::uint64_t> (&from)[kNameWords],
              std::uint64_t words[kNameWords]) noexcept {
  for (std::size_t w = 0; w < kNameWords; ++w) {
    words[w] = from[w].load(std::memory_order_relaxed);
  }
}

void storeName(std::atomic<std::uint64_t> (&to)[kNameWords],
               const std::uint64_t words[kNameWords]) noexcept {
  for (std::size_t w = 0; w < kNameWords; ++w) {
    to[w].store(words[w], std::memory_order_relaxed);
  }
}

using detail::Record;

Record* attachRecord() {
  const std::uint32_t index =
      gRecordCount.fetch_add(1, std::memory_order_acq_rel);
  if (index >= kMaxRecords) return nullptr;
  Record* record = new Record;  // immortal, reachable through gRecords
  record->tid = index + 1;
  record->capacity = static_cast<std::uint32_t>(gCapacity);
  if (gCapacity > 0) record->slots = new Slot[gCapacity];
  gRecords[index].store(record, std::memory_order_release);
  return record;
}

struct RecordHandle {
  Record* record = nullptr;
  bool attachFailed = false;
  ~RecordHandle() {
    if (record != nullptr) {
      record->exited.store(true, std::memory_order_relaxed);
    }
  }
};

thread_local RecordHandle tlsRecord;

// The calling thread's record; nullptr past the record table, where the
// caller counts what it could not record.
Record* localRecord() {
  RecordHandle& handle = tlsRecord;
  if (handle.record == nullptr && !handle.attachFailed) {
    handle.record = attachRecord();
    handle.attachFailed = handle.record == nullptr;
  }
  return handle.record;
}

void recordEvent(Record& record, std::uint64_t tsNs, EventKind kind,
                 const std::uint64_t nameWords[kNameWords], std::uint64_t arg,
                 std::uint8_t level) {
  const std::uint64_t h = record.head.load(std::memory_order_relaxed);
  Slot& slot = record.slots[h % record.capacity];
  slot.tsNs.store(tsNs, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.seq.store(h, std::memory_order_relaxed);
  slot.tid.store(record.tid, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.level.store(level, std::memory_order_relaxed);
  storeName(slot.name, nameWords);
  record.head.store(h + 1, std::memory_order_release);
}

void appendTraced(Record& record, const TracedSpan& span) {
  const std::uint64_t epoch = gTraceEpoch.load(std::memory_order_acquire);
  std::uint32_t n = record.traced.load(std::memory_order_relaxed);
  if (record.traceEpoch.load(std::memory_order_relaxed) != epoch) {
    n = 0;
    record.traced.store(0, std::memory_order_relaxed);
    record.traceEpoch.store(epoch, std::memory_order_release);
  }
  if (n >= Tracer::kMaxEventsPerThread) {
    droppedCounter().add();
    return;
  }
  TracedSpan*& chunk = record.chunks[n / kTraceChunk];
  if (chunk == nullptr) chunk = new TracedSpan[kTraceChunk];
  chunk[n % kTraceChunk] = span;
  record.traced.store(n + 1, std::memory_order_release);
}

std::uint32_t publishedRecordCount() noexcept {
  const std::uint32_t count = gRecordCount.load(std::memory_order_acquire);
  return count < kMaxRecords ? count : static_cast<std::uint32_t>(kMaxRecords);
}

// Records with a ring, in attach order; trace-only records (attached while
// SCA_FLIGHT_EVENTS=0) have nothing to dump.
Record* ringAt(std::uint32_t index) noexcept {
  Record* record = gRecords[index].load(std::memory_order_acquire);
  return record != nullptr && record->capacity > 0 ? record : nullptr;
}

bool anyActiveSpans() noexcept {
  const std::uint32_t count = publishedRecordCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    Record* ring = ringAt(i);
    if (ring != nullptr && ring->depth.load(std::memory_order_relaxed) > 0) {
      return true;
    }
  }
  return false;
}

// SCA_OBS_TEST_DELAY_MS: CI's slowdown-injection hook. Every phase span
// sleeps this long (cached; 0/unset = free no-op) before it reads its end
// time, so the delay lands in the phase's recorded wall time — the lever
// tools/ci.sh uses to prove `sca_cli history check` catches a regression.
void applyPhaseTestDelay() {
  static const std::size_t delayMs =
      util::envTestHook("SCA_OBS_TEST_DELAY_MS", 60000);
  if (delayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
  }
}

std::uint64_t monotonicNowNs() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Async-signal-safe emission. Everything below the Sink line builds JSON
// into fixed stack buffers with manual integer formatting — no allocation,
// no locks, no stdio — so the same code serves the fatal-signal handler,
// the watchdog dump, and tests.

struct Sink {
  void (*fn)(void* ctx, const char* data, std::size_t len);
  void* ctx;
};

void fdSinkFn(void* ctx, const char* data, std::size_t len) {
  const int fd = *static_cast<const int*>(ctx);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void stringSinkFn(void* ctx, const char* data, std::size_t len) {
  static_cast<std::string*>(ctx)->append(data, len);
}

struct LineBuf {
  char data[768];
  std::size_t len = 0;
  void ch(char c) noexcept {
    if (len < sizeof(data)) data[len++] = c;
  }
  void str(const char* s) noexcept {
    while (*s != '\0') ch(*s++);
  }
  void strN(const char* s, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) ch(s[i]);
  }
  void u64(std::uint64_t v) noexcept {
    char tmp[24];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) ch(tmp[--i]);
  }
  void flush(const Sink& sink) noexcept {
    ch('\n');
    sink.fn(sink.ctx, data, len);
    len = 0;
  }
};

const char* signalNameOrNull(int signo) noexcept {
  switch (signo) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    default:
      return nullptr;
  }
}

// Arm state. The label and postmortem path live in fixed buffers filled at
// arm() time so the signal handler never touches std::string.
std::mutex gArmMutex;
int gArmCount = 0;
std::string gDir;
std::string gWatchdogPath;
std::string gPostmortemPath;
char gPostmortemPathBuf[512] = {};
char gLabelBuf[64] = {};
std::atomic<std::uint64_t> gEpochOffsetNs{0};  // monotonic ns at tracer epoch
std::atomic<int> gFatalSignal{0};
std::atomic<bool> gWatchdogTripped{false};
volatile sig_atomic_t gInHandler = 0;
bool gHandlersInstalled = false;
struct sigaction gPrevSegv, gPrevAbrt, gPrevBus;

std::thread gWatchdogThread;
std::mutex gWatchdogMutex;
std::condition_variable gWatchdogCv;
bool gWatchdogStop = false;

std::uint64_t sigSafeNowNs() noexcept {
  return monotonicNowNs() - gEpochOffsetNs.load(std::memory_order_relaxed);
}

void emitHeader(const Sink& sink, const char* cause, int signo) noexcept {
  LineBuf line;
  line.str("{\"schema\":\"sca-postmortem-v1\",\"cause\":\"");
  line.str(cause);
  line.ch('"');
  if (signo != 0) {
    line.str(",\"signal\":\"");
    if (const char* name = signalNameOrNull(signo); name != nullptr) {
      line.str(name);
    } else {
      line.str("SIG");
      line.u64(static_cast<std::uint64_t>(signo));
    }
    line.str("\",\"signo\":");
    line.u64(static_cast<std::uint64_t>(signo));
  }
  line.str(",\"label\":\"");
  line.str(gLabelBuf);
  line.str("\",\"ts_ns\":");
  line.u64(sigSafeNowNs());
  line.str(",\"capacity\":");
  line.u64(gCapacity);
  line.ch('}');
  line.flush(sink);
}

void emitRings(const Sink& sink) noexcept {
  const std::uint32_t count = publishedRecordCount();
  std::uint64_t threads = 0;
  std::uint64_t totalEvents = 0;
  char name[kNameBytes + 1];
  std::uint64_t words[kNameWords];
  for (std::uint32_t i = 0; i < count; ++i) {
    Record* ring = ringAt(i);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    ++threads;
    totalEvents += head;
    LineBuf line;
    line.str("{\"type\":\"thread\",\"tid\":");
    line.u64(ring->tid);
    line.str(",\"exited\":");
    line.u64(ring->exited.load(std::memory_order_relaxed) ? 1 : 0);
    line.str(",\"events\":");
    line.u64(head);
    line.ch('}');
    line.flush(sink);

    std::uint32_t depth = ring->depth.load(std::memory_order_acquire);
    if (depth > kMaxActiveDepth) depth = kMaxActiveDepth;
    for (std::uint32_t d = 0; d < depth; ++d) {
      loadName(ring->active[d].name, words);
      const std::size_t nameLen = unpackName(words, name);
      line.str("{\"type\":\"active\",\"tid\":");
      line.u64(ring->tid);
      line.str(",\"depth\":");
      line.u64(d);
      line.str(",\"name\":\"");
      line.strN(name, nameLen);
      line.str("\",\"since_ns\":");
      line.u64(ring->active[d].sinceNs.load(std::memory_order_relaxed));
      line.ch('}');
      line.flush(sink);
    }

    const std::uint64_t window = ring->capacity - 1;
    const std::uint64_t tail = head < window ? head : window;
    for (std::uint64_t seq = head - tail; seq < head; ++seq) {
      Slot& slot = ring->slots[seq % ring->capacity];
      if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
      loadName(slot.name, words);
      const std::size_t nameLen = unpackName(words, name);
      line.str("{\"type\":\"event\",\"tid\":");
      line.u64(ring->tid);
      line.str(",\"seq\":");
      line.u64(seq);
      line.str(",\"ts_ns\":");
      line.u64(slot.tsNs.load(std::memory_order_relaxed));
      line.str(",\"kind\":\"");
      line.str(eventKindName(slot.kind.load(std::memory_order_relaxed)));
      line.str("\",\"level\":");
      line.u64(slot.level.load(std::memory_order_relaxed));
      line.str(",\"name\":\"");
      line.strN(name, nameLen);
      line.str("\",\"arg\":");
      line.u64(slot.arg.load(std::memory_order_relaxed));
      line.ch('}');
      line.flush(sink);
    }
  }
  LineBuf end;
  end.str("{\"type\":\"end\",\"threads\":");
  end.u64(threads);
  end.str(",\"events\":");
  end.u64(totalEvents);
  end.ch('}');
  end.flush(sink);
}

void writeSignalPostmortem(int signo) noexcept {
  const int fd =
      ::open(gPostmortemPathBuf, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  int fdCopy = fd;
  Sink sink{&fdSinkFn, &fdCopy};
  emitHeader(sink, "signal", signo);
  emitRings(sink);
  ::close(fd);
}

void restoreDefaultAndRaise(int signo) noexcept {
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  ::sigaction(signo, &dfl, nullptr);
  ::raise(signo);
}

void fatalSignalHandler(int signo) {
  if (gInHandler != 0) {
    restoreDefaultAndRaise(signo);
    return;
  }
  gInHandler = 1;
  gFatalSignal.store(signo, std::memory_order_relaxed);
  writeSignalPostmortem(signo);
  restoreDefaultAndRaise(signo);
}

void mkdirAll(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty() && prefix != "/") {
        ::mkdir(prefix.c_str(), 0755);  // EEXIST is fine
      }
    }
    if (i < path.size()) prefix.push_back(path[i]);
  }
}

// Watchdog dump: the sig-safe ring serialization plus context only a
// normal-context writer can gather (suspect line, metrics, rusage),
// written crash-safely through atomicWriteFile.
void writeWatchdogDump(double intervalSeconds, int quietTicks) {
  std::string out;
  Sink sink{&stringSinkFn, &out};
  emitHeader(sink, "watchdog_stall", 0);

  const std::uint64_t nowNs = Tracer::global().nowNs();
  std::vector<ThreadSnapshot> threads = snapshot();
  const ThreadSnapshot* suspectThread = nullptr;
  std::uint64_t suspectAge = 0;
  for (const ThreadSnapshot& thread : threads) {
    if (thread.exited || thread.activeSpans.empty()) continue;
    const std::uint64_t since = thread.activeSpans.back().sinceNs;
    const std::uint64_t age = nowNs > since ? nowNs - since : 0;
    if (suspectThread == nullptr || age > suspectAge) {
      suspectThread = &thread;
      suspectAge = age;
    }
  }
  if (suspectThread != nullptr) {
    out += "{\"type\":\"suspect\",\"tid\":" +
           std::to_string(suspectThread->tid) + ",\"name\":\"" +
           suspectThread->activeSpans.back().name +
           "\",\"age_ns\":" + std::to_string(suspectAge) +
           ",\"quiet_ticks\":" + std::to_string(quietTicks) +
           ",\"interval_s\":" + util::formatDouble(intervalSeconds, 3) +
           "}\n";
  }

  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  out += "{\"type\":\"metrics\",\"stable\":" + stableMetricsJson(metrics) +
         ",\"runtime\":" + runtimeMetricsJson(metrics) + "}\n";

  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    const double userS = static_cast<double>(usage.ru_utime.tv_sec) +
                         static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    const double sysS = static_cast<double>(usage.ru_stime.tv_sec) +
                        static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    out += "{\"type\":\"rusage\",\"max_rss_kb\":" +
           std::to_string(usage.ru_maxrss) +
           ",\"user_s\":" + util::formatDouble(userS, 3) +
           ",\"sys_s\":" + util::formatDouble(sysS, 3) + "}\n";
  }

  emitRings(sink);
  (void)util::atomicWriteFile(gWatchdogPath, out);
}

// Two consecutive quiet intervals with live spans = a stall: a single
// quiet tick can be a long compute chunk, but span-instrumented work that
// makes progress records events (heartbeats) well inside one interval.
void watchdogLoop(double intervalSeconds) {
  const auto interval = std::chrono::duration<double>(intervalSeconds);
  std::uint64_t last = progressEpoch();
  int quiet = 0;
  std::unique_lock<std::mutex> lock(gWatchdogMutex);
  while (!gWatchdogStop) {
    if (gWatchdogCv.wait_for(lock, interval, [] { return gWatchdogStop; })) {
      break;
    }
    lock.unlock();
    const std::uint64_t now = progressEpoch();
    if (now == last && anyActiveSpans()) {
      ++quiet;
      if (quiet >= 2 &&
          !gWatchdogTripped.exchange(true, std::memory_order_acq_rel)) {
        writeWatchdogDump(intervalSeconds, quiet);
        MetricsRegistry::global()
            .counter("flight_watchdog_trips", Stability::kRuntime)
            .add(1);
        logEvent(LogLevel::kWarn, "flight", "watchdog_stall",
                 [&](util::JsonObjectBuilder& fields) {
                   fields.addUint("quiet_ticks",
                                  static_cast<std::uint64_t>(quiet));
                   fields.add("dump", gWatchdogPath);
                 });
      }
    } else {
      quiet = 0;
    }
    last = now;
    lock.lock();
  }
}

std::string signalNameString(int signo) {
  if (const char* name = signalNameOrNull(signo); name != nullptr) {
    return name;
  }
  return "SIG" + std::to_string(signo);
}

}  // namespace

const char* eventKindName(std::uint8_t kind) noexcept {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kSpanBegin:
      return "span_begin";
    case EventKind::kSpanEnd:
      return "span_end";
    case EventKind::kLog:
      return "log";
    case EventKind::kPhase:
      return "phase";
  }
  return "unknown";
}

void note(EventKind kind, std::string_view name, std::uint64_t arg,
          std::uint8_t level) {
  if (!enabled()) return;
  Record* record = localRecord();
  if (record == nullptr) {
    droppedCounter().add();
    return;
  }
  if (record->capacity == 0) return;
  std::uint64_t words[kNameWords];
  packName(name, words);
  recordEvent(*record, Tracer::global().nowNs(), kind, words, arg, level);
}

void noteLog(std::uint8_t level, std::string_view component,
             std::string_view event) {
  if (!enabled()) return;
  char buf[kNameBytes];
  std::size_t n = 0;
  for (char c : component) {
    if (n >= kNameBytes) break;
    buf[n++] = c;
  }
  if (n < kNameBytes) buf[n++] = ':';
  for (char c : event) {
    if (n >= kNameBytes) break;
    buf[n++] = c;
  }
  note(EventKind::kLog, std::string_view(buf, n), 0, level);
}

std::uint32_t threadId() {
  const Record* record = localRecord();
  return record != nullptr ? record->tid : 0;
}

std::uint64_t progressEpoch() noexcept {
  const std::uint32_t count = publishedRecordCount();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (Record* ring = ringAt(i)) {
      total += ring->head.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::vector<ThreadSnapshot> snapshot() {
  std::vector<ThreadSnapshot> out;
  const std::uint32_t count = publishedRecordCount();
  out.reserve(count);
  char name[kNameBytes + 1];
  std::uint64_t words[kNameWords];
  for (std::uint32_t i = 0; i < count; ++i) {
    Record* ring = ringAt(i);
    if (ring == nullptr) continue;
    ThreadSnapshot snap;
    snap.tid = ring->tid;
    snap.exited = ring->exited.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    snap.totalEvents = head;
    const std::uint64_t window = ring->capacity - 1;
    const std::uint64_t tail = head < window ? head : window;
    snap.events.reserve(tail);
    for (std::uint64_t seq = head - tail; seq < head; ++seq) {
      Slot& slot = ring->slots[seq % ring->capacity];
      if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
      SnapshotEvent event;
      event.seq = seq;
      event.tsNs = slot.tsNs.load(std::memory_order_relaxed);
      event.arg = slot.arg.load(std::memory_order_relaxed);
      event.tid = slot.tid.load(std::memory_order_relaxed);
      event.kind = slot.kind.load(std::memory_order_relaxed);
      event.level = slot.level.load(std::memory_order_relaxed);
      loadName(slot.name, words);
      event.name.assign(name, unpackName(words, name));
      snap.events.push_back(std::move(event));
    }
    std::uint32_t depth = ring->depth.load(std::memory_order_acquire);
    if (depth > kMaxActiveDepth) depth = kMaxActiveDepth;
    for (std::uint32_t d = 0; d < depth; ++d) {
      loadName(ring->active[d].name, words);
      SnapshotActiveSpan span;
      span.name.assign(name, unpackName(words, name));
      span.sinceNs = ring->active[d].sinceNs.load(std::memory_order_relaxed);
      snap.activeSpans.push_back(std::move(span));
    }
    out.push_back(std::move(snap));
  }
  return out;
}

ArmOptions armOptionsFromEnv(std::string label) {
  ArmOptions options;
  options.label = std::move(label);
  if (const char* dir = std::getenv("SCA_FLIGHT_DIR");
      dir != nullptr && *dir != '\0') {
    options.dir = dir;
  }
  if (const char* raw = std::getenv("SCA_WATCHDOG_S");
      raw != nullptr && *raw != '\0') {
    if (const std::optional<double> seconds =
            detail::parseWatchdogSeconds(raw)) {
      options.watchdogSeconds = *seconds;
    } else {
      warnMalformed("SCA_WATCHDOG_S", raw, "the watchdog off");
    }
  }
  return options;
}

void arm(const ArmOptions& options) {
  std::lock_guard<std::mutex> lock(gArmMutex);
  if (++gArmCount > 1) return;
  gFatalSignal.store(0, std::memory_order_relaxed);
  gWatchdogTripped.store(false, std::memory_order_relaxed);
  gDir = options.dir.empty() ? std::string("bench_out/flight") : options.dir;
  gWatchdogPath = gDir + "/watchdog.json";
  gPostmortemPath = gDir + "/postmortem.json";
  mkdirAll(gDir);

  std::size_t n = std::min(gPostmortemPath.size(),
                           sizeof(gPostmortemPathBuf) - 1);
  std::memcpy(gPostmortemPathBuf, gPostmortemPath.data(), n);
  gPostmortemPathBuf[n] = '\0';

  n = std::min(options.label.size(), sizeof(gLabelBuf) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    gLabelBuf[i] = sanitizeChar(options.label[i]);
  }
  gLabelBuf[n] = '\0';

  gEpochOffsetNs.store(monotonicNowNs() - Tracer::global().nowNs(),
                       std::memory_order_relaxed);

  if (options.installSignalHandlers) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &fatalSignalHandler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGSEGV, &action, &gPrevSegv);
    ::sigaction(SIGABRT, &action, &gPrevAbrt);
    ::sigaction(SIGBUS, &action, &gPrevBus);
    gHandlersInstalled = true;
  }

  if (options.watchdogSeconds > 0.0 && enabled()) {
    {
      std::lock_guard<std::mutex> wdLock(gWatchdogMutex);
      gWatchdogStop = false;
    }
    gWatchdogThread = std::thread(&watchdogLoop, options.watchdogSeconds);
  }
}

void disarm() {
  std::thread toJoin;
  {
    std::lock_guard<std::mutex> lock(gArmMutex);
    if (gArmCount == 0) return;
    if (--gArmCount > 0) return;
    {
      std::lock_guard<std::mutex> wdLock(gWatchdogMutex);
      gWatchdogStop = true;
    }
    gWatchdogCv.notify_all();
    toJoin = std::move(gWatchdogThread);
    if (gHandlersInstalled) {
      ::sigaction(SIGSEGV, &gPrevSegv, nullptr);
      ::sigaction(SIGABRT, &gPrevAbrt, nullptr);
      ::sigaction(SIGBUS, &gPrevBus, nullptr);
      gHandlersInstalled = false;
    }
  }
  if (toJoin.joinable()) toJoin.join();
}

std::string incidentCause() {
  const int signo = gFatalSignal.load(std::memory_order_relaxed);
  if (signo != 0) return signalNameString(signo);
  if (gWatchdogTripped.load(std::memory_order_relaxed)) {
    return "watchdog_stall";
  }
  return {};
}

std::string watchdogDumpPath() {
  std::lock_guard<std::mutex> lock(gArmMutex);
  return gArmCount > 0 ? gWatchdogPath : std::string{};
}

std::string postmortemPath() {
  std::lock_guard<std::mutex> lock(gArmMutex);
  return gArmCount > 0 ? gPostmortemPath : std::string{};
}

namespace detail {

std::optional<std::size_t> parseRingCapacity(std::string_view text) {
  unsigned long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (value == 0) return 0;
  return static_cast<std::size_t>(std::clamp(value, 16ULL, 65536ULL));
}

std::optional<double> parseWatchdogSeconds(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    return std::nullopt;
  }
  return std::min(value, 3600.0);
}

void setEnabledForTest(bool enabled) {
  if (enabled && gCapacity == 0) gCapacity = 256;
  gEnabled.store(enabled, std::memory_order_relaxed);
}

std::size_t ringCapacity() noexcept { return gCapacity; }

void runFatalSignalHandlerForTest(int signo) {
  gFatalSignal.store(signo, std::memory_order_relaxed);
  writeSignalPostmortem(signo);
}

}  // namespace detail

}  // namespace sca::obs::flight

// ---------------------------------------------------------------------------
// obs::Span writes, and obs::Tracer reads, the per-thread record above.

namespace sca::obs {

using flight::detail::Record;

Span::Span(std::string_view name, const char* category) {
  span_.category = category;
  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();
  const bool ringed = flight::enabled();
  const bool phase = category == kPhaseCategory;
  if (!traced && !ringed && !phase) return;
  if (phase) {
    phase_ = MetricsRegistry::global().gauge(std::string(kPhaseGaugePrefix) +
                                             std::string(name));
  }
  open_ = true;
  span_.startNs = tracer.nowNs();
  if (!traced && !ringed) return;
  record_ = flight::localRecord();
  if (record_ == nullptr) {
    flight::droppedCounter().add();
    return;
  }
  Record& record = *record_;
  flight::packName(name, span_.name);
  if (traced) {
    // The tid in the high bits keeps ids unique across threads without any
    // shared counter; the parent chain lives in the Span objects, so it is
    // exact at any depth.
    span_.parentId = record.innermostSpan;
    span_.id = (static_cast<std::uint64_t>(record.tid) << 32) |
               (++record.spanSequence & 0xffffffffULL);
    record.innermostSpan = span_.id;
  }
  if (ringed && record.capacity > 0) {
    ringed_ = true;
    const std::uint32_t depth = record.depth.load(std::memory_order_relaxed);
    if (depth < flight::kMaxActiveDepth) {
      record.active[depth].sinceNs.store(span_.startNs,
                                         std::memory_order_relaxed);
      flight::storeName(record.active[depth].name, span_.name);
    }
    record.depth.store(depth + 1, std::memory_order_release);
    flight::recordEvent(
        record, span_.startNs, flight::EventKind::kSpanBegin, span_.name, 0,
        static_cast<std::uint8_t>(std::min<std::uint32_t>(depth, 255)));
  }
}

Span::~Span() {
  if (!open_) return;
  const bool phase = span_.category == kPhaseCategory;
  if (phase) flight::applyPhaseTestDelay();
  const std::uint64_t endNs = Tracer::global().nowNs();
  span_.durationNs = endNs - span_.startNs;
  if (phase) phase_.add(static_cast<double>(span_.durationNs) / 1e9);
  if (record_ == nullptr) return;
  if (ringed_) {
    const std::uint32_t depth = record_->depth.load(std::memory_order_relaxed);
    const std::uint32_t outer = depth > 0 ? depth - 1 : 0;
    record_->depth.store(outer, std::memory_order_release);
    flight::recordEvent(
        *record_, endNs, flight::EventKind::kSpanEnd, span_.name,
        span_.durationNs,
        static_cast<std::uint8_t>(std::min<std::uint32_t>(outer, 255)));
  }
  if (span_.id != 0) {
    record_->innermostSpan = span_.parentId;
    flight::appendTraced(*record_, span_);
  }
}

std::uint64_t Tracer::currentSpanId() noexcept {
  const Record* record = flight::tlsRecord.record;
  return record != nullptr ? record->innermostSpan : 0;
}

std::vector<TraceEvent> Tracer::snapshotEvents() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(flight::gTraceReadMutex);
    const std::uint64_t epoch =
        flight::gTraceEpoch.load(std::memory_order_relaxed);
    const std::uint32_t count = flight::publishedRecordCount();
    char name[flight::kNameBytes + 1];
    for (std::uint32_t i = 0; i < count; ++i) {
      const Record* record =
          flight::gRecords[i].load(std::memory_order_acquire);
      if (record == nullptr ||
          record->traceEpoch.load(std::memory_order_acquire) != epoch) {
        continue;
      }
      const std::uint32_t n = record->traced.load(std::memory_order_acquire);
      for (std::uint32_t k = 0; k < n; ++k) {
        const flight::TracedSpan& span =
            record->chunks[k / flight::kTraceChunk][k % flight::kTraceChunk];
        out.push_back(
            {std::string(name, flight::unpackName(span.name, name, false)),
             span.category, span.startNs, span.durationNs, record->tid,
             span.id, span.parentId});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.id < b.id;
            });
  return out;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(flight::gTraceReadMutex);
  flight::gTraceEpoch.fetch_add(1, std::memory_order_release);
}

}  // namespace sca::obs
