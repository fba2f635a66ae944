#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/flight_report.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"

namespace sca::obs::flight {
namespace {

/// Flight state is process-global; restore the recorder gate and keep each
/// test's dump directory private so the suites sharing this binary do not
/// interfere.
class FlightTest : public ::testing::Test {
 protected:
  FlightTest() : initiallyEnabled_(enabled()) {
    detail::setEnabledForTest(true);
  }
  ~FlightTest() override {
    detail::setEnabledForTest(initiallyEnabled_);
    EventLog::global().configure("", LogLevel::kInfo);
  }

  static std::string freshDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

 private:
  bool initiallyEnabled_;
};

const ThreadSnapshot* findByLastEvent(const std::vector<ThreadSnapshot>& all,
                                      std::string_view name,
                                      std::uint64_t arg) {
  for (const ThreadSnapshot& thread : all) {
    if (!thread.events.empty() && thread.events.back().name == name &&
        thread.events.back().arg == arg) {
      return &thread;
    }
  }
  return nullptr;
}

// The ring keeps the newest capacity-1 events with contiguous sequence
// numbers once it wraps; the oldest slot is the one being overwritten and
// is deliberately outside the readable window.
TEST_F(FlightTest, RingOverwritesOldestAndKeepsSequenceContiguous) {
  const std::uint64_t capacity = detail::ringCapacity();
  ASSERT_GE(capacity, 16u);
  const std::uint64_t target = capacity + 50;
  ThreadSnapshot mine;
  bool found = false;
  // A fresh thread owns a fresh ring, so totalEvents is exactly what this
  // test records. The thread snapshots itself while quiescent: no shear.
  std::thread worker([&] {
    for (std::uint64_t i = 0; i < target; ++i) {
      note(EventKind::kPhase, "flight_fill", i);
    }
    const std::vector<ThreadSnapshot> all = snapshot();
    if (const ThreadSnapshot* self =
            findByLastEvent(all, "flight_fill", target - 1)) {
      mine = *self;
      found = true;
    }
  });
  worker.join();
  ASSERT_TRUE(found);
  EXPECT_EQ(mine.totalEvents, target);
  ASSERT_EQ(mine.events.size(), capacity - 1);
  EXPECT_EQ(mine.events.front().seq, target - (capacity - 1));
  for (std::size_t i = 1; i < mine.events.size(); ++i) {
    EXPECT_EQ(mine.events[i].seq, mine.events[i - 1].seq + 1);
  }
  EXPECT_EQ(mine.events.back().arg, target - 1);
  EXPECT_EQ(mine.events.back().kind,
            static_cast<std::uint8_t>(EventKind::kPhase));
}

// obs::Span feeds the recorder even with the tracer disabled (its id
// stays 0, which perfbench's work ledger relies on), and the active-span
// stack tracks nesting in real time.
TEST_F(FlightTest, SpansFeedTheActiveStackIndependentlyOfTheTracer) {
  ASSERT_FALSE(Tracer::global().enabled());
  std::vector<std::string> whileNested;
  std::vector<std::string> afterInner;
  std::vector<std::uint8_t> innerKinds;
  std::uint64_t ids = 1;
  std::thread worker([&] {
    Span outer("flight_outer");
    {
      Span inner("flight_inner");
      ids = outer.id() | inner.id();
      for (const ThreadSnapshot& thread : snapshot()) {
        if (!thread.activeSpans.empty() &&
            thread.activeSpans.back().name == "flight_inner") {
          for (const SnapshotActiveSpan& span : thread.activeSpans) {
            whileNested.push_back(span.name);
          }
        }
      }
    }
    for (const ThreadSnapshot& thread : snapshot()) {
      if (!thread.activeSpans.empty() &&
          thread.activeSpans.back().name == "flight_outer") {
        for (const SnapshotActiveSpan& span : thread.activeSpans) {
          afterInner.push_back(span.name);
        }
        for (const SnapshotEvent& event : thread.events) {
          if (event.name == "flight_inner") innerKinds.push_back(event.kind);
        }
      }
    }
  });
  worker.join();
  EXPECT_EQ(ids, 0u);
  ASSERT_EQ(whileNested.size(), 2u);
  EXPECT_EQ(whileNested[0], "flight_outer");
  EXPECT_EQ(whileNested[1], "flight_inner");
  ASSERT_EQ(afterInner.size(), 1u);
  EXPECT_EQ(afterInner[0], "flight_outer");
  ASSERT_EQ(innerKinds.size(), 2u);
  EXPECT_EQ(innerKinds[0], static_cast<std::uint8_t>(EventKind::kSpanBegin));
  EXPECT_EQ(innerKinds[1], static_cast<std::uint8_t>(EventKind::kSpanEnd));
}

// The trace list does not depend on the ring: with the recorder gate off
// the span is traced and the ring sees nothing.
TEST_F(FlightTest, TracingRecordsWithTheRingDisabled) {
  detail::setEnabledForTest(false);
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  bool inRing = false;
  std::thread worker([&] {
    { Span span("flight_trace_only"); }
    for (const ThreadSnapshot& thread : snapshot()) {
      for (const SnapshotEvent& event : thread.events) {
        inRing = inRing || event.name == "flight_trace_only";
      }
    }
  });
  worker.join();
  const std::vector<TraceEvent> events = tracer.snapshotEvents();
  tracer.setEnabled(false);
  tracer.clear();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "flight_trace_only");
  EXPECT_NE(events[0].id, 0u);
  EXPECT_FALSE(inRing);
}

// SCA_FLIGHT_EVENTS and SCA_WATCHDOG_S parse whole numbers only; anything
// else is rejected (the env readers then keep the defaults and warn)
// instead of silently switching the recorder or the watchdog off.
TEST_F(FlightTest, EnvKnobsParseWholeNumbersOnly) {
  for (const char* bad : {"abc", "-5", "1e3", "16x", "", " 16", "+16"}) {
    EXPECT_FALSE(detail::parseRingCapacity(bad).has_value()) << bad;
  }
  EXPECT_EQ(detail::parseRingCapacity("0"), std::optional<std::size_t>(0));
  EXPECT_EQ(detail::parseRingCapacity("8"), std::optional<std::size_t>(16));
  EXPECT_EQ(detail::parseRingCapacity("300"),
            std::optional<std::size_t>(300));
  EXPECT_EQ(detail::parseRingCapacity("1000000"),
            std::optional<std::size_t>(65536));

  for (const char* bad : {"abc", "2s", "-1", "nan", "inf", ""}) {
    EXPECT_FALSE(detail::parseWatchdogSeconds(bad).has_value()) << bad;
  }
  EXPECT_EQ(detail::parseWatchdogSeconds("0"), std::optional<double>(0.0));
  EXPECT_EQ(detail::parseWatchdogSeconds("2"), std::optional<double>(2.0));
  EXPECT_EQ(detail::parseWatchdogSeconds("0.5"), std::optional<double>(0.5));
  EXPECT_EQ(detail::parseWatchdogSeconds("1e5"),
            std::optional<double>(3600.0));
}

// logEvent call sites land in the ring as "component:event" records even
// when SCA_LOG is unset — the crash rings see retries/failovers that the
// (disabled) event log never writes anywhere.
TEST_F(FlightTest, LogEventFeedsTheRingWhenTheEventLogIsOff) {
  ASSERT_FALSE(EventLog::global().enabledFor(LogLevel::kError));
  std::atomic<bool> seen{false};
  std::thread worker([&] {
    logEvent(LogLevel::kWarn, "flight_test", "ping");
    for (const ThreadSnapshot& thread : snapshot()) {
      for (const SnapshotEvent& event : thread.events) {
        if (event.name == "flight_test:ping" &&
            event.kind == static_cast<std::uint8_t>(EventKind::kLog) &&
            event.level == static_cast<std::uint8_t>(LogLevel::kWarn)) {
          seen.store(true);
        }
      }
    }
  });
  worker.join();
  EXPECT_TRUE(seen.load());
}

// Ring names are sanitized before any reader sees them, so dump writers
// can embed them in JSON without escaping — quotes, backslashes and
// control bytes cannot reach the async-signal-safe serializer.
TEST_F(FlightTest, EventNamesAreSanitizedAtRecordTime) {
  bool checked = false;
  std::thread worker([&] {
    note(EventKind::kPhase, "bad\"name\\with\ncontrol", 7);
    for (const ThreadSnapshot& thread : snapshot()) {
      if (!thread.events.empty() && thread.events.back().arg == 7) {
        EXPECT_EQ(thread.events.back().name, "bad_name_with_control");
        checked = true;
      }
    }
  });
  worker.join();
  EXPECT_TRUE(checked);
}

TEST_F(FlightTest, WatchdogTripsOnAWedgedSpan) {
  const std::string dir = freshDir("flight_wd_trip");
  ArmOptions options;
  options.dir = dir;
  options.label = "flight_test";
  options.watchdogSeconds = 0.04;
  options.installSignalHandlers = false;
  {
    ArmedScope scope(options);
    EXPECT_EQ(incidentCause(), "");
    std::thread wedged([] {
      Span span("flight_wedged");
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    });
    wedged.join();
  }
  EXPECT_EQ(incidentCause(), "watchdog_stall");
  const util::Result<std::string> dump =
      util::readFile(dir + "/watchdog.json");
  ASSERT_TRUE(dump.ok());
  const util::Result<Postmortem> parsed = Postmortem::parse(dump.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
  EXPECT_EQ(parsed.value().cause, "watchdog_stall");
  EXPECT_EQ(parsed.value().label, "flight_test");
  EXPECT_TRUE(parsed.value().hasMetrics);
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t ageNs = 0;
  ASSERT_TRUE(parsed.value().suspectOrInfer(&tid, &name, &ageNs));
  EXPECT_EQ(name, "flight_wedged");
  const std::string text = parsed.value().renderText(10);
  EXPECT_NE(text.find("watchdog_stall"), std::string::npos);
  EXPECT_NE(text.find("flight_wedged"), std::string::npos);
}

TEST_F(FlightTest, WatchdogStaysSilentWhileEventsFlow) {
  const std::string dir = freshDir("flight_wd_silent");
  ArmOptions options;
  options.dir = dir;
  options.label = "flight_test";
  options.watchdogSeconds = 0.04;
  options.installSignalHandlers = false;
  {
    ArmedScope scope(options);
    std::thread busy([] {
      Span span("flight_busy");
      for (int i = 0; i < 60; ++i) {
        note(EventKind::kPhase, "flight_heartbeat",
             static_cast<std::uint64_t>(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    busy.join();
  }
  EXPECT_EQ(incidentCause(), "");
  EXPECT_FALSE(std::filesystem::exists(dir + "/watchdog.json"));
}

// The test bridge runs the real async-signal-safe dump path (fixed
// buffers + write(2)) without re-raising, so the postmortem format and
// the incident-cause latch are verifiable in-process.
TEST_F(FlightTest, FatalSignalPathWritesAParseablePostmortem) {
  const std::string dir = freshDir("flight_sig");
  ArmOptions options;
  options.dir = dir;
  options.label = "flight_test";
  options.watchdogSeconds = 0.0;
  options.installSignalHandlers = false;
  ArmedScope scope(options);
  Span span("flight_crash_site");
  detail::runFatalSignalHandlerForTest(SIGSEGV);
  EXPECT_EQ(incidentCause(), "SIGSEGV");

  const util::Result<std::string> dump =
      util::readFile(dir + "/postmortem.json");
  ASSERT_TRUE(dump.ok());
  const util::Result<Postmortem> parsed = Postmortem::parse(dump.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
  EXPECT_EQ(parsed.value().cause, "signal");
  EXPECT_EQ(parsed.value().signal, "SIGSEGV");
  EXPECT_EQ(parsed.value().signo, SIGSEGV);
  ASSERT_FALSE(parsed.value().threads.empty());
  const std::string text = parsed.value().renderText(5);
  EXPECT_NE(text.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(text.find("flight_crash_site"), std::string::npos);
  EXPECT_NE(text.find("thread "), std::string::npos);

  // The latched cause is what bench::Session writes as partial_cause.
  FinishedRun run;
  run.bench = "flight_test";
  run.complete = false;
  run.partialCause = incidentCause();
  run.manifestPath = dir + "/record.json";
  ASSERT_TRUE(writeRunRecord(run).isOk());
  util::Result<std::string> record = util::readFile(run.manifestPath);
  ASSERT_TRUE(record.ok());
  EXPECT_NE(record.value().find("\"partial_cause\":\"SIGSEGV\""),
            std::string::npos);

  run.complete = true;
  run.partialCause = "ignored";
  ASSERT_TRUE(writeRunRecord(run).isOk());
  record = util::readFile(run.manifestPath);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().find("partial_cause"), std::string::npos);
}

// A fresh arm clears any previously latched incident.
TEST_F(FlightTest, ArmingClearsThePreviousIncidentCause) {
  const std::string dir = freshDir("flight_rearm");
  ArmOptions options;
  options.dir = dir;
  options.label = "flight_test";
  options.installSignalHandlers = false;
  {
    ArmedScope scope(options);
    detail::runFatalSignalHandlerForTest(SIGABRT);
    EXPECT_EQ(incidentCause(), "SIGABRT");
  }
  {
    ArmedScope scope(options);
    EXPECT_EQ(incidentCause(), "");
  }
}

TEST_F(FlightTest, PostmortemParserRejectsGarbage) {
  EXPECT_FALSE(Postmortem::parse("not json at all").ok());
  EXPECT_FALSE(Postmortem::parse("{\"schema\":\"something-else\"}").ok());
  EXPECT_FALSE(Postmortem::parse("").ok());
}

// A crash can truncate the final record; everything before it must still
// parse.
TEST_F(FlightTest, PostmortemParserToleratesATruncatedFinalLine) {
  const std::string text =
      "{\"schema\":\"sca-postmortem-v1\",\"cause\":\"signal\","
      "\"signal\":\"SIGBUS\",\"signo\":7,\"label\":\"x\",\"ts_ns\":5,"
      "\"capacity\":256}\n"
      "{\"type\":\"thread\",\"tid\":1,\"exited\":0,\"events\":3}\n"
      "{\"type\":\"event\",\"tid\":1,\"seq\":2,\"ts_ns\":4,"
      "\"kind\":\"phase\",\"level\":0,\"name\":\"ok\",\"arg\":0}\n"
      "{\"type\":\"event\",\"tid\":1,\"seq\":3,\"ts_";  // torn mid-write
  const util::Result<Postmortem> parsed = Postmortem::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
  EXPECT_EQ(parsed.value().signal, "SIGBUS");
  ASSERT_EQ(parsed.value().threads.size(), 1u);
  EXPECT_EQ(parsed.value().threads.at(1).events.size(), 1u);
}

}  // namespace
}  // namespace sca::obs::flight
