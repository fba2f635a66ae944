#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::obs {
namespace {

/// Tests drive explicit pool sizes, tracer and event-log state; restore
/// all three so the other suites sharing the process are unaffected.
class ObsTest : public ::testing::Test {
 protected:
  ~ObsTest() override {
    runtime::setGlobalThreadCount(0);
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
    EventLog::global().configure("", LogLevel::kInfo);
  }
};

// The registry's headline contract: the stable section of a snapshot is
// byte-identical for every thread count, as long as the recorded *events*
// are. This is exactly what the CI observability smoke compares between
// whole micro_pipeline runs; here it is pinned at the unit level.
TEST_F(ObsTest, StableSnapshotIsByteIdenticalAcrossThreadCounts) {
  MetricsRegistry& registry = MetricsRegistry::global();
  std::vector<std::string> renders;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::setGlobalThreadCount(threads);
    // The registry keeps lifetime totals, so each pass records under its
    // own names and renders only its own entries.
    const std::string suffix = "_t" + std::to_string(threads);
    const Counter items = registry.counter("obs_test_items" + suffix);
    const Histogram sizes =
        registry.histogram("obs_test_sizes" + suffix, {1.0, 4.0, 16.0});
    runtime::parallelFor(0, 512, [&](std::size_t i) {
      items.add();
      sizes.observe(static_cast<double>(i % 20));
    });
    const MetricsSnapshot merged = registry.snapshot();
    MetricsSnapshot own;
    own.counters["obs_test_items"] =
        merged.counters.at("obs_test_items" + suffix);
    own.histograms["obs_test_sizes"] =
        merged.histograms.at("obs_test_sizes" + suffix);
    renders.push_back(stableMetricsJson(own));
  }
  EXPECT_EQ(renders[0], renders[1]);
  // And the section is not trivially empty.
  EXPECT_NE(renders[0].find("\"obs_test_items\":512"), std::string::npos);
}

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const Histogram h = registry.histogram("obs_test_edges", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 4.1}) h.observe(v);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.count("obs_test_edges"), 1u);
  const HistogramSnapshot& edges = snapshot.histograms.at("obs_test_edges");
  ASSERT_EQ(edges.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(edges.counts[0], 2u);      // 0.5, 1.0  (bound inclusive)
  EXPECT_EQ(edges.counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(edges.counts[2], 1u);      // 4.0
  EXPECT_EQ(edges.counts[3], 1u);      // 4.1 overflows
  EXPECT_EQ(edges.total(), 6u);
}

TEST_F(ObsTest, GaugeSumAccumulatesAndMaxKeepsHighWater) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const Gauge sum = registry.gauge("obs_test_sum", GaugeKind::kSum);
  const Gauge max = registry.gauge("obs_test_max", GaugeKind::kMax);
  sum.add(1.5);
  sum.add(2.5);
  max.recordMax(3.0);
  max.recordMax(7.0);
  max.recordMax(5.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test_sum"), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test_max"), 7.0);
  // Gauges are always runtime: never in the stable section.
  EXPECT_EQ(stableMetricsJson(snapshot).find("obs_test_sum"),
            std::string::npos);
}

TEST_F(ObsTest, ReRegisteringUnderADifferentTypeThrows) {
  MetricsRegistry& registry = MetricsRegistry::global();
  (void)registry.counter("obs_test_typed");
  EXPECT_THROW((void)registry.gauge("obs_test_typed"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("obs_test_typed", {1.0}),
               std::logic_error);
  // Same type re-registration is find-or-create, not an error.
  (void)registry.counter("obs_test_typed");
  // Unregistered names read as zero rather than erroring.
  EXPECT_EQ(registry.counterValue("obs_test_never_registered"), 0u);
}

TEST_F(ObsTest, SpanParentLinkageFollowsLexicalNesting) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  {
    Span outer("obs_test_outer");
    {
      Span inner("obs_test_inner");
      EXPECT_NE(inner.id(), 0u);
      EXPECT_NE(inner.id(), outer.id());
    }
    { Span sibling("obs_test_sibling"); }
  }
  const std::vector<TraceEvent> events = tracer.snapshotEvents();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* sibling = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "obs_test_outer") outer = &e;
    if (e.name == "obs_test_inner") inner = &e;
    if (e.name == "obs_test_sibling") sibling = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->parentId, 0u);  // root span
  EXPECT_EQ(inner->parentId, outer->id);
  EXPECT_EQ(sibling->parentId, outer->id);
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durationNs,
            outer->startNs + outer->durationNs);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(false);
  tracer.clear();
  {
    Span span("obs_test_invisible");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(tracer.snapshotEvents().empty());
}

/// Traced spans named `name` in the tracer's current view.
std::size_t countTraced(std::string_view name) {
  const std::vector<TraceEvent> events = Tracer::global().snapshotEvents();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const TraceEvent& e) { return e.name == name; }));
}

/// Turns the flight ring on for one test and restores it after.
class RingOn {
 public:
  RingOn() : was_(flight::enabled()) {
    flight::detail::setEnabledForTest(true);
  }
  ~RingOn() { flight::detail::setEnabledForTest(was_); }

 private:
  bool was_;
};

// The trace list and the ring are two retention policies in one record: a
// traced span stays until clear(), however many untraced events the same
// thread then writes to its wrapping ring.
TEST_F(ObsTest, TracedSpansOutliveUntracedRingTraffic) {
  const RingOn ring;
  const std::size_t untraced = 4 * flight::detail::ringCapacity();
  Tracer& tracer = Tracer::global();
  tracer.clear();
  std::thread worker([&] {
    tracer.setEnabled(true);
    for (int i = 0; i < 3; ++i) Span span("obs_test_kept");
    tracer.setEnabled(false);
    for (std::size_t i = 0; i < untraced; ++i) Span span("obs_test_untraced");
  });
  worker.join();
  EXPECT_EQ(countTraced("obs_test_kept"), 3u);
  EXPECT_EQ(countTraced("obs_test_untraced"), 0u);
  tracer.clear();
  EXPECT_EQ(countTraced("obs_test_kept"), 0u);
}

TEST_F(ObsTest, TracedBurstLongerThanTheRingIsKept) {
  const RingOn ring;
  const std::size_t burst = 4 * flight::detail::ringCapacity();
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  std::thread worker([&] {
    for (std::size_t i = 0; i < burst; ++i) Span span("obs_test_burst");
  });
  worker.join();
  EXPECT_EQ(countTraced("obs_test_burst"), burst);
}

TEST_F(ObsTest, SpansClosedOnAnExitedThreadStayInTheTrace) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  std::uint64_t id = 0;
  std::thread worker([&] {
    Span span("obs_test_exited");
    id = span.id();
  });
  worker.join();
  const std::vector<TraceEvent> events = tracer.snapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "obs_test_exited");
  EXPECT_EQ(events[0].id, id);
  EXPECT_NE(id, 0u);
}

// Parent ids come from the enclosing Span objects, not from the ring's
// bounded active-span stack, so they stay exact past its depth.
TEST_F(ObsTest, ParentsAreExactPastTheActiveStackDepth) {
  const RingOn ring;
  constexpr int kDepth = 30;
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  std::vector<std::uint64_t> ids;
  const std::function<void(int)> nest = [&](int depth) {
    Span span("obs_test_depth_" + std::to_string(depth));
    ids.push_back(span.id());
    if (depth + 1 < kDepth) nest(depth + 1);
  };
  nest(0);
  const std::vector<TraceEvent> events = tracer.snapshotEvents();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kDepth));
  for (const TraceEvent& e : events) {
    const int depth = std::stoi(e.name.substr(e.name.rfind('_') + 1));
    EXPECT_EQ(e.id, ids[depth]);
    EXPECT_EQ(e.parentId, depth == 0 ? 0u : ids[depth - 1]) << e.name;
  }
}

// A trace cut at the per-thread cap says so: the overflow is counted in
// the run record's runtime counters.
TEST_F(ObsTest, SpansPastThePerThreadCapAreCountedAsDropped) {
  const MetricsRegistry& registry = MetricsRegistry::global();
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  const std::uint64_t before = registry.counterValue("obs_events_dropped");
  std::thread worker([] {
    for (std::size_t i = 0; i <= Tracer::kMaxEventsPerThread; ++i) {
      Span span("obs_test_cap");
    }
  });
  worker.join();
  EXPECT_EQ(countTraced("obs_test_cap"), Tracer::kMaxEventsPerThread);
  EXPECT_EQ(registry.counterValue("obs_events_dropped") - before, 1u);
  FinishedRun run;
  run.bench = "obs_test_cap";
  run.manifestPath = ::testing::TempDir() + "obs_test_cap.json";
  ASSERT_TRUE(writeRunRecord(run).isOk());
  const util::Result<std::string> line = util::readFile(run.manifestPath);
  ASSERT_TRUE(line.ok());
  RunRecord record;
  ASSERT_TRUE(parseRunRecord(line.value(), &record));
  EXPECT_EQ(record.runtimeCounters.count("obs_events_dropped"), 1u);
  EXPECT_EQ(record.counters.count("obs_events_dropped"), 0u);
}

// snapshotEvents() and clear() may run while other threads close traced
// spans; a reader must never see a slot its owner is reusing after a
// clear (TSan checks the publication protocol; here every span read back
// must be whole).
TEST_F(ObsTest, SnapshotAndClearRaceWithTracedWriters) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Span outer("obs_test_race_outer");
        Span inner("obs_test_race_inner");
      }
    });
  }
  std::size_t torn = 0;
  std::size_t seen = 0;
  for (int i = 0; i < 50 || (seen < 10000 && i < 100000); ++i) {
    const std::vector<TraceEvent> events = tracer.snapshotEvents();
    seen += events.size();
    for (const TraceEvent& e : events) {
      const bool outer = e.name == "obs_test_race_outer";
      if ((!outer && e.name != "obs_test_race_inner") || e.id == 0 ||
          (outer && e.parentId != 0) || (!outer && e.parentId == 0)) {
        ++torn;
      }
    }
    if (i % 2 == 0) tracer.clear();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(torn, 0u);
}

// One record, one tid: the Chrome trace, the flight ring and the event log
// name a thread the same way.
TEST_F(ObsTest, TraceRingAndLogShareTheThreadId) {
  const RingOn ring;
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  const std::string path = ::testing::TempDir() + "obs_test_tid_log.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  EventLog::global().configure(path, LogLevel::kInfo);
  std::uint32_t ringTid = 0;
  std::thread worker([&] {
    { Span span("obs_test_tid"); }
    logEvent(LogLevel::kInfo, "test", "tid");
    for (const flight::ThreadSnapshot& thread : flight::snapshot()) {
      for (const flight::SnapshotEvent& event : thread.events) {
        if (event.name == "obs_test_tid") ringTid = thread.tid;
      }
    }
  });
  worker.join();
  EventLog::global().configure("", LogLevel::kInfo);

  const util::Result<std::vector<TraceEvent>> trace =
      parseChromeTrace(chromeTraceJson(tracer.snapshotEvents()));
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().size(), 1u);
  const std::uint32_t traceTid = trace.value()[0].tid;
  const util::Result<std::string> log = util::readFile(path);
  ASSERT_TRUE(log.ok());
  long long logTid = 0;
  ASSERT_TRUE(util::jsonIntField(log.value(), "tid", &logTid));
  EXPECT_NE(traceTid, 0u);
  EXPECT_EQ(ringTid, traceTid);
  EXPECT_EQ(logTid, static_cast<long long>(traceTid));
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormedAndRoundTrips) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  {
    Span outer("obs_test_trace_outer");
    { Span inner("obs_test_trace_inner"); }
  }
  const std::string json = chromeTraceJson(tracer.snapshotEvents());
  const std::string array = extractJsonArray(json, "traceEvents");
  ASSERT_FALSE(array.empty());
  std::vector<std::string> elements;
  ASSERT_TRUE(topLevelElements(array, &elements));
  ASSERT_EQ(elements.size(), 2u);
  for (const std::string& e : elements) {
    EXPECT_NE(e.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(e.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(e.find("\"ts\":"), std::string::npos);
    EXPECT_NE(e.find("\"dur\":"), std::string::npos);
  }

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(tracer.writeChromeTrace(path).isOk());
  const util::Result<std::string> back = util::readFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), json);
}

TEST_F(ObsTest, RunManifestMarksPartialAndCompleteRuns) {
  (void)MetricsRegistry::global().counter("obs_test_manifest").add(1);

  FinishedRun run;
  run.manifestPath = ::testing::TempDir() + "obs_test_manifest.json";
  run.bench = "obs_test_bench";
  run.threads = 3;

  run.complete = false;
  ASSERT_TRUE(writeRunRecord(run).isOk());
  util::Result<std::string> manifest = util::readFile(run.manifestPath);
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"schema\":\"sca-run-v1\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"status\":\"partial\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"bench\":\"obs_test_bench\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"threads\":3"), std::string::npos);

  run.complete = true;
  ASSERT_TRUE(writeRunRecord(run).isOk());
  manifest = util::readFile(run.manifestPath);
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"status\":\"complete\""),
            std::string::npos);

  // The embedded stable section is navigable with the bundled scanners —
  // the same path sca_cli metrics walks.
  const std::string metrics = extractJsonObject(manifest.value(), "metrics");
  ASSERT_FALSE(metrics.empty());
  const std::string counters = extractJsonObject(metrics, "counters");
  ASSERT_FALSE(counters.empty());
  EXPECT_NE(counters.find("\"obs_test_manifest\":1"), std::string::npos);
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(topLevelEntries(metrics, &entries));
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].first, "counters");
}

// --- quantile sketches ----------------------------------------------------

TEST_F(ObsTest, QuantileSketchTracksQuantilesWithinRelativeAccuracy) {
  QuantileSketch sketch(0.01);
  for (int i = 1; i <= 1000; ++i) sketch.observe(static_cast<double>(i));
  EXPECT_EQ(sketch.count(), 1000u);
  EXPECT_DOUBLE_EQ(sketch.minValue(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.maxValue(), 1000.0);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double truth = q * 1000.0;
    const double got = sketch.quantile(q);
    EXPECT_NEAR(got, truth, truth * 0.021)  // 2*alpha + rounding headroom
        << "q=" << q;
  }
  // Non-positive observations land in the zero bucket and anchor q=0.
  sketch.observe(0.0);
  sketch.observe(-3.0);
  EXPECT_DOUBLE_EQ(sketch.minValue(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
}

TEST_F(ObsTest, EmptyQuantileSketchReadsAsZeroes) {
  const QuantileSketch empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.999), 0.0);
  EXPECT_DOUBLE_EQ(empty.minValue(), 0.0);
  EXPECT_DOUBLE_EQ(empty.maxValue(), 0.0);
  EXPECT_EQ(empty.percentilesJson(), "{\"count\":0}");
}

// The determinism contract: integer bucket merges are associative and
// commutative, so any sharding of one observation stream serializes to the
// same bytes.
TEST_F(ObsTest, QuantileSketchMergeIsOrderIndependent) {
  QuantileSketch a, b, c;
  for (int i = 0; i < 40; ++i) a.observe(0.001 * (i + 1));
  for (int i = 0; i < 40; ++i) b.observe(3.0 * (i + 1));
  for (int i = 0; i < 10; ++i) c.observe(0.0);

  QuantileSketch abc = a;
  abc.merge(b);
  abc.merge(c);
  QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  QuantileSketch bcIntoA = a;  // (b merged c) merged into a: associativity
  QuantileSketch bc = b;
  bc.merge(c);
  bcIntoA.merge(bc);

  EXPECT_EQ(abc.toJson(), cba.toJson());
  EXPECT_EQ(abc.toJson(), bcIntoA.toJson());
  EXPECT_EQ(abc.count(), 90u);

  // Merging an empty sketch is the identity in both directions.
  QuantileSketch empty;
  QuantileSketch aCopy = a;
  aCopy.merge(empty);
  EXPECT_EQ(aCopy.toJson(), a.toJson());
  empty.merge(a);
  EXPECT_EQ(empty.toJson(), a.toJson());

  // Mismatched non-empty grids cannot merge meaningfully: no-op.
  QuantileSketch coarse(0.1);
  coarse.observe(5.0);
  const std::string before = coarse.toJson();
  coarse.merge(a);
  EXPECT_EQ(coarse.toJson(), before);
}

// Same shape as StableSnapshotIsByteIdenticalAcrossThreadCounts: the
// registry's serialized sketches may not depend on how many workers fed
// them.
TEST_F(ObsTest, SketchRegistryJsonIsByteIdenticalAcrossThreadCounts) {
  SketchRegistry& registry = SketchRegistry::global();
  std::vector<std::string> renders;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::setGlobalThreadCount(threads);
    registry.reset();
    runtime::parallelFor(0, 512, [&](std::size_t i) {
      registry.observe("obs_test_sketch",
                       static_cast<double>((i * 37) % 100) * 0.25);
    });
    renders.push_back(registry.sketchesJson());
  }
  registry.reset();
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_NE(renders[0].find("\"obs_test_sketch\":{\"count\":512"),
            std::string::npos);
  EXPECT_NE(renders[0].find("\"sketch\":{\"alpha\":0.01"),
            std::string::npos);
}

TEST_F(ObsTest, QuantileSketchRoundTripsThroughJsonAndTheManifest) {
  QuantileSketch sketch(0.02);
  sketch.observe(0.0);
  for (int i = 1; i <= 200; ++i) sketch.observe(0.01 * i * i);

  QuantileSketch back;
  ASSERT_TRUE(QuantileSketch::fromJson(sketch.toJson(), &back));
  EXPECT_EQ(back.toJson(), sketch.toJson());
  EXPECT_EQ(back.count(), sketch.count());
  EXPECT_DOUBLE_EQ(back.quantile(0.99), sketch.quantile(0.99));

  // Torn records (count no longer equals the bucket totals) are rejected.
  std::string torn = sketch.toJson();
  torn.resize(torn.rfind("],["));
  EXPECT_FALSE(QuantileSketch::fromJson(torn, &back));
  EXPECT_FALSE(QuantileSketch::fromJson("{\"alpha\":0.01}", &back));

  // And the same sketch survives a trip through the manifest's "sketches"
  // section — the path serve telemetry actually takes.
  SketchRegistry::global().reset();
  SketchRegistry::global().merge("obs_test_roundtrip", sketch);
  FinishedRun run;
  run.manifestPath = ::testing::TempDir() + "obs_test_sketch_manifest.json";
  run.bench = "obs_test_sketch";
  run.complete = true;
  ASSERT_TRUE(writeRunRecord(run).isOk());
  const util::Result<std::string> manifest = util::readFile(run.manifestPath);
  ASSERT_TRUE(manifest.ok());
  const std::string section =
      extractJsonObject(manifest.value(), "sketches");
  ASSERT_FALSE(section.empty());
  const std::string entry =
      extractJsonObject(section, "obs_test_roundtrip");
  ASSERT_FALSE(entry.empty());
  QuantileSketch fromManifest;
  ASSERT_TRUE(QuantileSketch::fromJson(extractJsonObject(entry, "sketch"),
                                       &fromManifest));
  EXPECT_EQ(fromManifest.toJson(), sketch.toJson());
  SketchRegistry::global().reset();
}

TEST_F(ObsTest, JsonScannersHandleNestingEscapesAndMalformedInput) {
  const std::string json =
      "{\"a\":{\"nested\":{\"x\":1}},\"s\":\"br{ace \\\" quote\","
      "\"arr\":[{\"k\":[1,2]},\"two\"],\"n\":7}";
  EXPECT_EQ(extractJsonObject(json, "a"), "{\"nested\":{\"x\":1}}");
  EXPECT_EQ(extractJsonArray(json, "arr"), "[{\"k\":[1,2]},\"two\"]");
  EXPECT_TRUE(extractJsonObject(json, "missing").empty());
  EXPECT_TRUE(extractJsonArray(json, "a").empty());  // object, not array

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(topLevelEntries(json, &entries));
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[1].first, "s");
  EXPECT_EQ(entries[1].second, "\"br{ace \\\" quote\"");
  EXPECT_EQ(entries[3].second, "7");

  std::vector<std::string> elements;
  ASSERT_TRUE(topLevelElements("[{\"k\":[1,2]},\"two\"]", &elements));
  ASSERT_EQ(elements.size(), 2u);
  EXPECT_EQ(elements[0], "{\"k\":[1,2]}");
  EXPECT_EQ(elements[1], "\"two\"");

  EXPECT_FALSE(topLevelEntries("{\"unterminated\":", &entries));
  EXPECT_FALSE(topLevelElements("[1,2", &elements));
}

TEST_F(ObsTest, EventLogFiltersByLevelAndRecordsFields) {
  EventLog& log = EventLog::global();
  const std::string path = ::testing::TempDir() + "obs_test_events.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  log.configure(path, LogLevel::kWarn);
  EXPECT_FALSE(log.enabledFor(LogLevel::kDebug));
  EXPECT_FALSE(log.enabledFor(LogLevel::kInfo));
  EXPECT_TRUE(log.enabledFor(LogLevel::kWarn));
  EXPECT_TRUE(log.enabledFor(LogLevel::kError));

  logEvent(LogLevel::kInfo, "test", "filtered_out");
  logEvent(LogLevel::kWarn, "test", "kept",
           [](util::JsonObjectBuilder& fields) { fields.addInt("n", 7); });
  log.configure("", LogLevel::kInfo);

  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value().find("filtered_out"), std::string::npos);
  EXPECT_NE(content.value().find("\"event\":\"kept\""), std::string::npos);
  EXPECT_NE(content.value().find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(content.value().find("\"component\":\"test\""),
            std::string::npos);
  EXPECT_NE(content.value().find("\"fields\":{\"n\":7}"), std::string::npos);
}

TEST_F(ObsTest, EventLogStampsTheInnermostLiveSpan) {
  Tracer::global().setEnabled(true);
  Tracer::global().clear();
  EventLog& log = EventLog::global();
  const std::string path = ::testing::TempDir() + "obs_test_span_log.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  log.configure(path, LogLevel::kDebug);

  std::uint64_t spanId = 0;
  {
    Span span("obs_test_log_span");
    spanId = span.id();
    logEvent(LogLevel::kInfo, "test", "inside");
  }
  logEvent(LogLevel::kInfo, "test", "outside");
  log.configure("", LogLevel::kInfo);

  ASSERT_NE(spanId, 0u);
  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(
      content.value().find("\"span\":\"" + util::toHex64(spanId) + "\""),
      std::string::npos);
  EXPECT_NE(content.value().find("\"span\":\"" + util::toHex64(0) + "\""),
            std::string::npos);
}

TEST_F(ObsTest, DisabledEventLogWritesNothing) {
  EventLog& log = EventLog::global();
  log.configure("", LogLevel::kDebug);
  EXPECT_FALSE(log.enabledFor(LogLevel::kError));
  // Call sites stay armed; with no sink they must be inert and crash-free.
  logEvent(LogLevel::kError, "test", "dropped",
           [](util::JsonObjectBuilder& fields) { fields.addInt("n", 1); });
}

// Each record is appended with ONE O_APPEND write(2), so records never
// interleave. POSIX gives no read/write atomicity on regular files, though:
// a reader tailing the file may catch a record still being copied. So the
// live reader allows one torn fragment after the last newline, while every
// newline-terminated line must be one whole record; the final file must
// hold only whole records.
TEST_F(ObsTest, ConcurrentLogWritersNeverTearALine) {
  const std::string path =
      ::testing::TempDir() + "obs_test_concurrent_log.jsonl";
  std::remove(path.c_str());
  EventLog::global().configure(path, LogLevel::kInfo);

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> tornObservations{0};

  const auto checkContent = [&](const std::string& content,
                                bool allowTornTail) {
    const std::size_t whole = content.rfind('\n') + 1;  // npos + 1 == 0
    if (!allowTornTail && whole != content.size()) {
      tornObservations.fetch_add(1);
    }
    std::size_t pos = 0;
    while (pos < whole) {
      const std::size_t eol = content.find('\n', pos);
      const std::string_view line(content.data() + pos, eol - pos);
      if (line.empty() || line.front() != '{' || line.back() != '}') {
        tornObservations.fetch_add(1);
      }
      pos = eol + 1;
    }
  };

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (const util::Result<std::string> content = util::readFile(path);
          content.ok()) {
        checkContent(content.value(), /*allowTornTail=*/true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kPerWriter; ++i) {
        logEvent(LogLevel::kInfo, "torn_test", "w",
                 [&](util::JsonObjectBuilder& fields) {
                   fields.addInt("writer", w);
                   fields.addInt("i", i);
                 });
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(tornObservations.load(), 0);

  // Final state: every record arrived exactly once, all lines whole.
  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  checkContent(content.value(), /*allowTornTail=*/false);
  EXPECT_EQ(tornObservations.load(), 0);
  std::size_t records = 0;
  std::size_t pos = 0;
  while ((pos = content.value().find("\"component\":\"torn_test\"", pos)) !=
         std::string::npos) {
    ++records;
    pos += 1;
  }
  EXPECT_EQ(records, static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_EQ(EventLog::global().droppedWrites(), 0u);
}

// --- trace analytics ------------------------------------------------------

/// Hand-built span tree with known self times:
///   root [0,100)       self 10 (children cover 60+30)
///     childA [0,60)    self 60
///     childB [65,95)   self 10 (grand covers 20)
///       grand [70,90)  self 20
std::vector<TraceEvent> spanFixture() {
  std::vector<TraceEvent> events(4);
  events[0].name = "root";
  events[0].startNs = 0;
  events[0].durationNs = 100;
  events[0].id = 1;
  events[1].name = "childA";
  events[1].startNs = 0;
  events[1].durationNs = 60;
  events[1].id = 2;
  events[1].parentId = 1;
  events[2].name = "childB";
  events[2].startNs = 65;
  events[2].durationNs = 30;
  events[2].id = 3;
  events[2].parentId = 1;
  events[3].name = "grand";
  events[3].startNs = 70;
  events[3].durationNs = 20;
  events[3].id = 4;
  events[3].parentId = 3;
  return events;
}

TEST_F(ObsTest, SpanHotspotsRankBySelfTime) {
  const std::vector<SpanStats> hotspots = spanHotspots(spanFixture());
  ASSERT_EQ(hotspots.size(), 4u);
  EXPECT_EQ(hotspots[0].name, "childA");
  EXPECT_EQ(hotspots[0].selfNs, 60u);
  EXPECT_EQ(hotspots[1].name, "grand");
  EXPECT_EQ(hotspots[1].selfNs, 20u);
  // Equal self times (10) rank alphabetically: deterministic reports.
  EXPECT_EQ(hotspots[2].name, "childB");
  EXPECT_EQ(hotspots[3].name, "root");
  EXPECT_EQ(hotspots[3].totalNs, 100u);

  EXPECT_EQ(spanHotspots(spanFixture(), 2).size(), 2u);
}

// Pin the tie-break contract `sca_cli trace --summary` relies on: spans
// with equal self time rank by name, never by map/insertion order — the
// report is byte-stable for any event ordering of the same trace.
TEST_F(ObsTest, SpanHotspotTiesBreakBySpanNameNotInsertionOrder) {
  const auto makeEvent = [](const char* name, std::uint64_t id) {
    TraceEvent event;
    event.name = name;
    event.startNs = id * 1000;  // disjoint roots: selfNs == durationNs
    event.durationNs = 50;
    event.id = id;
    return event;
  };
  std::vector<TraceEvent> events = {makeEvent("zeta", 1),
                                    makeEvent("alpha", 2),
                                    makeEvent("mid", 3)};
  const std::vector<std::string> expected = {"alpha", "mid", "zeta"};
  do {
    const std::vector<SpanStats> hotspots = spanHotspots(events);
    ASSERT_EQ(hotspots.size(), 3u);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(hotspots[i].name, expected[i]);
      EXPECT_EQ(hotspots[i].selfNs, 50u);
    }
  } while (std::next_permutation(
      events.begin(), events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.id < b.id; }));
}

TEST_F(ObsTest, CriticalPathDescendsIntoTheLastFinishingChild) {
  const std::vector<CriticalPathStep> path = criticalPath(spanFixture());
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].name, "root");
  EXPECT_EQ(path[1].name, "childB");  // ends at 95, after childA's 60
  EXPECT_EQ(path[2].name, "grand");
  EXPECT_EQ(path[1].selfNs, 10u);
  EXPECT_EQ(path[2].durationNs, 20u);
  EXPECT_TRUE(criticalPath({}).empty());
}

TEST_F(ObsTest, ChromeTraceParsesBackToTheSameEvents) {
  std::vector<TraceEvent> events = spanFixture();
  for (TraceEvent& e : events) {  // µs-grid values round-trip exactly
    e.startNs *= 1000;
    e.durationNs *= 1000;
    e.tid = 2;
  }
  const util::Result<std::vector<TraceEvent>> parsed =
      parseChromeTrace(chromeTraceJson(events));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].name, events[i].name);
    EXPECT_EQ(parsed.value()[i].startNs, events[i].startNs);
    EXPECT_EQ(parsed.value()[i].durationNs, events[i].durationNs);
    EXPECT_EQ(parsed.value()[i].tid, events[i].tid);
    EXPECT_EQ(parsed.value()[i].id, events[i].id);
    EXPECT_EQ(parsed.value()[i].parentId, events[i].parentId);
  }

  EXPECT_FALSE(parseChromeTrace("{\"notATrace\":[]}").ok());
}

}  // namespace
}  // namespace sca::obs
