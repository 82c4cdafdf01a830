// Tests of the emc::obs observability layer: the JSON value tree and its
// parser (every exported document must parse back), the sharded metric
// registry (deterministic merges across threads, kill switch), the span
// tracer (nesting, concurrent per-thread rings, overflow accounting,
// untouched ring storage, Chrome trace export) and the RunReport builder.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "test_temp_path.hpp"

namespace {

using namespace emc;
using obs::Json;

// ------------------------------------------------------------------- Json

TEST(ObsJson, BuildAndReadBack) {
  auto doc = Json::object();
  doc.set("name", Json::string("run"))
      .set("count", Json::integer(42))
      .set("ratio", Json::number(0.5))
      .set("ok", Json::boolean(true))
      .set("nothing", Json::null());
  auto arr = Json::array();
  arr.push(Json::integer(1)).push(Json::integer(2));
  doc.set("items", std::move(arr));

  EXPECT_EQ(doc.at("name").as_string(), "run");
  EXPECT_EQ(doc.at("count").as_integer(), 42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_double(), 0.5);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("nothing").is_null());
  EXPECT_EQ(doc.at("items").size(), 2u);
  EXPECT_EQ(doc.at("items")[1].as_integer(), 2);
  // as_double accepts integers (a parsed "3" may feed a double consumer)...
  EXPECT_DOUBLE_EQ(doc.at("count").as_double(), 42.0);
  // ...but the reverse narrows and throws.
  EXPECT_THROW(doc.at("ratio").as_integer(), std::logic_error);
  EXPECT_THROW(doc.at("name").as_double(), std::logic_error);

  EXPECT_EQ(doc.find("count"), &doc.at("count"));
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), std::logic_error);

  // Fields keep insertion order (reports must diff cleanly run to run).
  EXPECT_EQ(doc.fields()[0].first, "name");
  EXPECT_EQ(doc.fields()[5].first, "items");
}

TEST(ObsJson, DumpParseRoundTripIsExact) {
  auto doc = Json::object();
  doc.set("escapes", Json::string("a\"b\\c\nd\te\x01f"));
  doc.set("neg", Json::integer(-7));
  doc.set("big", Json::number(1.25e9));
  doc.set("empty_obj", Json::object());
  doc.set("empty_arr", Json::array());
  auto nested = Json::array();
  nested.push(Json::object().set("k", Json::boolean(false)));
  doc.set("nested", std::move(nested));

  const std::string text = doc.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.dump(), text);  // fixed point after one round trip
  EXPECT_EQ(back.at("escapes").as_string(), "a\"b\\c\nd\te\x01f");
  EXPECT_EQ(back.at("nested")[0].at("k").as_bool(), false);
}

TEST(ObsJson, ParserHandlesNumbersEscapesAndErrors) {
  EXPECT_EQ(Json::parse("42").as_integer(), 42);
  EXPECT_TRUE(Json::parse("42").kind() == Json::Kind::kInteger);
  EXPECT_TRUE(Json::parse("4.5").kind() == Json::Kind::kNumber);
  EXPECT_TRUE(Json::parse("1e3").kind() == Json::Kind::kNumber);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-0.125").as_double(), -0.125);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(Json::parse("[]").size(), 0u);
  EXPECT_TRUE(Json::parse("null").is_null());

  EXPECT_THROW(Json::parse(""), obs::JsonParseError);
  EXPECT_THROW(Json::parse("{"), obs::JsonParseError);
  EXPECT_THROW(Json::parse("tru"), obs::JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), obs::JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), obs::JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), obs::JsonParseError);  // trailing garbage
  try {
    Json::parse("[1, 2, oops]");
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_GE(e.offset(), 7u);  // points at the bad token, not the start
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(ObsJson, NonFiniteNumbersEmitNull) {
  auto doc = Json::array();
  doc.push(Json::number(std::numeric_limits<double>::infinity()));
  doc.push(Json::number(std::numeric_limits<double>::quiet_NaN()));
  const Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back[0].is_null());
  EXPECT_TRUE(back[1].is_null());
}

// ------------------------------------------------------------ MetricRegistry

TEST(ObsMetrics, CountersSumAcrossThreadsDeterministically) {
  obs::MetricRegistry reg;
  const auto id = reg.counter("test.count");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) reg.add(id);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(reg.snapshot().value("test.count"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, GaugeIsHighWatermarkAcrossThreads) {
  obs::MetricRegistry reg;
  const auto id = reg.gauge("test.peak");
  std::vector<std::thread> ts;
  for (int t = 1; t <= 4; ++t)
    ts.emplace_back([&, t] {
      reg.set_max(id, static_cast<std::uint64_t>(100 * t));
      reg.set_max(id, 1);  // lowering never sticks
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(reg.snapshot().value("test.peak"), 400u);
}

TEST(ObsMetrics, HistogramBucketsCountSumMax) {
  obs::MetricRegistry reg;
  const auto id = reg.histogram("test.h");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 255ull}) reg.record(id, v);
  const auto snap = reg.snapshot();
  const auto* row = snap.find("test.h");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(row->value, 6u);  // count
  EXPECT_EQ(row->sum, 265u);
  EXPECT_EQ(row->max, 255u);
  ASSERT_EQ(row->buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(row->buckets[0], 1u);  // value 0
  EXPECT_EQ(row->buckets[1], 1u);  // value 1
  EXPECT_EQ(row->buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(row->buckets[3], 1u);  // value 4
  EXPECT_EQ(row->buckets[8], 1u);  // value 255
}

TEST(ObsMetrics, SnapshotSortedRegistrationIdempotentKindMismatchThrows) {
  obs::MetricRegistry reg;
  reg.counter("zz.last");
  reg.counter("aa.first");
  const auto a = reg.counter("zz.last");  // idempotent: same metric
  reg.add(a, 5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.rows.size(), 2u);
  EXPECT_EQ(snap.rows[0].name, "aa.first");
  EXPECT_EQ(snap.rows[1].name, "zz.last");
  EXPECT_EQ(snap.value("zz.last"), 5u);
  EXPECT_EQ(snap.value("absent"), 0u);
  EXPECT_THROW(reg.gauge("zz.last"), std::logic_error);
}

TEST(ObsMetrics, KillSwitchStopsRecordingAndResetZeroes) {
  obs::MetricRegistry reg;
  const auto id = reg.counter("test.c");
  reg.add(id, 3);
  reg.set_enabled(false);
  reg.add(id, 100);
  reg.set_max(reg.gauge("test.g"), 7);
  EXPECT_EQ(reg.snapshot().value("test.c"), 3u);
  EXPECT_EQ(reg.snapshot().value("test.g"), 0u);
  reg.set_enabled(true);
  reg.add(id);
  EXPECT_EQ(reg.snapshot().value("test.c"), 4u);
  reg.reset();
  EXPECT_EQ(reg.snapshot().value("test.c"), 0u);
  // Names survive a reset — the next add lands in the same row.
  reg.add(id, 2);
  EXPECT_EQ(reg.snapshot().value("test.c"), 2u);
}

TEST(ObsMetrics, SnapshotToJsonShape) {
  obs::MetricRegistry reg;
  reg.add(reg.counter("c"), 9);
  reg.record(reg.histogram("h"), 4);
  reg.record(reg.histogram("h"), 4);
  const Json j = reg.snapshot().to_json();
  EXPECT_EQ(j.at("c").as_integer(), 9);
  EXPECT_EQ(j.at("h").at("count").as_integer(), 2);
  EXPECT_EQ(j.at("h").at("sum").as_integer(), 8);
  EXPECT_EQ(j.at("h").at("max").as_integer(), 4);
  EXPECT_DOUBLE_EQ(j.at("h").at("mean").as_double(), 4.0);
  // Parse-back of the snapshot document (it lands inside RunReports).
  EXPECT_EQ(Json::parse(j.dump()).at("c").as_integer(), 9);
}

TEST(ObsMetrics, GlobalHandlesRecordIntoGlobalRegistry) {
  static const obs::Counter c("test_obs.handle.count");
  static const obs::Gauge g("test_obs.handle.peak");
  static const obs::Histogram h("test_obs.handle.hist");
  obs::registry().reset();
  c.add();
  c.add(4);
  g.set_max(123);
  h.record(16);
  const auto snap = obs::registry().snapshot();
  EXPECT_EQ(snap.value("test_obs.handle.count"), 5u);
  EXPECT_EQ(snap.value("test_obs.handle.peak"), 123u);
  EXPECT_EQ(snap.value("test_obs.handle.hist"), 1u);
  obs::registry().reset();
}

// ------------------------------------------------------------------ Tracer

TEST(ObsTrace, SpansWithoutTracerAreInert) {
  // No tracer installed: spans must be safe no-ops at any nesting.
  obs::Span a("outer");
  { obs::Span b("inner"); }
  SUCCEED();
}

TEST(ObsTrace, RecordsNestedSpansWithDepthAndContainment) {
  obs::Tracer tracer;
  tracer.install();
  {
    obs::Span sweep("sweep");
    {
      obs::Span corner("corner");
      obs::Span transient("transient");
      (void)transient;
    }
    { obs::Span corner2("corner"); }
  }
  tracer.uninstall();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.threads(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);

  // Sorted (tid, start, -duration): the enclosing span leads.
  EXPECT_STREQ(events[0].name, "sweep");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "corner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "transient");
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_STREQ(events[3].name, "corner");

  // Interval containment: every child lies inside its parent.
  const auto& p = events[0];
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, p.ts_ns);
    EXPECT_LE(events[i].ts_ns + events[i].dur_ns, p.ts_ns + p.dur_ns);
  }
  EXPECT_GE(events[2].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[2].ts_ns + events[2].dur_ns, events[1].ts_ns + events[1].dur_ns);
}

TEST(ObsTrace, ConcurrentThreadsGetDistinctRings) {
  obs::Tracer tracer;
  tracer.install();
  constexpr int kThreads = 4, kSpans = 50;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span outer("outer");
        obs::Span inner("inner");
        (void)inner;
      }
    });
  for (auto& t : ts) t.join();
  tracer.uninstall();

  EXPECT_EQ(tracer.threads(), static_cast<std::size_t>(kThreads));
  const auto events = tracer.events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpans * 2);
  // Per-thread streams stay internally nested even under concurrency.
  std::vector<int> outers(kThreads, 0);
  for (const auto& e : events) {
    ASSERT_LT(e.tid, static_cast<std::uint32_t>(kThreads));
    if (std::string(e.name) == "outer") {
      EXPECT_EQ(e.depth, 0u);
      ++outers[e.tid];
    } else {
      EXPECT_EQ(e.depth, 1u);
    }
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(outers[t], kSpans);
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
  static const char* kNames[] = {"s0", "s1", "s2", "s3", "s4",
                                 "s5", "s6", "s7", "s8", "s9"};
  obs::Tracer tracer(/*ring_capacity=*/4);
  tracer.install();
  for (const char* name : kNames) { obs::Span s(name); }
  tracer.uninstall();

  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The newest events survive, in order.
  EXPECT_STREQ(events[0].name, "s6");
  EXPECT_STREQ(events[1].name, "s7");
  EXPECT_STREQ(events[2].name, "s8");
  EXPECT_STREQ(events[3].name, "s9");
}

TEST(ObsTrace, LargeRingStaysUntouchedUntilWritten) {
  // A thread's ring is allocated at its first span, but only the slots
  // written become resident: one span into a 1 Mi-event ring (32 MiB of
  // TraceEvent) must not fault the whole ring in.
  const obs::ResourceUsage before = obs::sample_resources();
  if (before.rss_is_peak) GTEST_SKIP() << "no current-RSS source (statm)";
  constexpr std::size_t kCapacity = 1 << 20;
  obs::Tracer tracer(kCapacity);
  tracer.install();
  { obs::Span s("one"); }
  tracer.uninstall();
  const obs::ResourceUsage after = obs::sample_resources();
  ASSERT_EQ(tracer.events().size(), 1u);

  const std::uint64_t ring_bytes = kCapacity * sizeof(obs::TraceEvent);
  const std::uint64_t grown =
      after.rss_bytes > before.rss_bytes ? after.rss_bytes - before.rss_bytes : 0;
  EXPECT_LT(grown, ring_bytes / 8) << "ring of " << ring_bytes << " bytes";
}

TEST(ObsTrace, SingleInstallContractAndReinstall) {
  obs::Tracer a;
  a.install();
  EXPECT_TRUE(a.installed());
  obs::Tracer b;
  EXPECT_THROW(b.install(), std::logic_error);
  a.uninstall();
  EXPECT_FALSE(a.installed());
  b.install();  // slot freed
  { obs::Span s("into_b"); }
  b.uninstall();
  EXPECT_EQ(b.events().size(), 1u);
  EXPECT_EQ(a.events().size(), 0u);
}

TEST(ObsTrace, ChromeTraceExportParsesBackWithCorrectShape) {
  obs::Tracer tracer;
  tracer.install();
  {
    obs::Span outer("phase");
    { obs::Span inner("work"); }
  }
  tracer.uninstall();

  const Json doc = Json::parse(tracer.chrome_trace_json().dump());
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events[i];
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("pid").as_integer(), 1);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
  }
  EXPECT_EQ(events[0].at("name").as_string(), "phase");
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_integer(), 0);

  const std::string path = test_temp_path("trace.json");
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_EQ(Json::parse(text).at("traceEvents").size(), 2u);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- RunReport

TEST(ObsReport, SectionsSettersMetricsAndTraceSummary) {
  obs::MetricRegistry reg;
  reg.add(reg.counter("runs"), 1);

  obs::Tracer tracer;
  tracer.install();
  { obs::Span s("phase"); }
  tracer.uninstall();

  obs::RunReport report("demo");
  report.set("solver", "kind", std::string("sparse"));
  report.set("solver", "newton_iters", 42L);
  report.set("solver", "converged", true);
  report.set("timing", "wall_s", 1.5);
  report.set("solver", "restamps", 0L);  // lands in the existing section
  report.add_metrics(reg.snapshot());
  report.add_trace_summary(tracer, "demo.trace.json");

  const Json j = report.to_json();
  EXPECT_EQ(j.at("report").as_string(), "demo");
  EXPECT_EQ(j.at("schema_version").as_integer(), 2);
  EXPECT_GT(j.at("host").at("cpus").as_integer(), 0);
  EXPECT_EQ(j.at("solver").at("kind").as_string(), "sparse");
  EXPECT_EQ(j.at("solver").at("newton_iters").as_integer(), 42);
  EXPECT_EQ(j.at("solver").at("restamps").as_integer(), 0);
  EXPECT_TRUE(j.at("solver").at("converged").as_bool());
  EXPECT_DOUBLE_EQ(j.at("timing").at("wall_s").as_double(), 1.5);
  EXPECT_EQ(j.at("metrics").at("runs").as_integer(), 1);
  EXPECT_EQ(j.at("trace").at("events").as_integer(), 1);
  EXPECT_EQ(j.at("trace").at("threads").as_integer(), 1);
  EXPECT_EQ(j.at("trace").at("file").as_string(), "demo.trace.json");

  // Section order is creation order after the automatic host section:
  // solver before timing.
  EXPECT_EQ(j.fields()[2].first, "host");
  EXPECT_EQ(j.fields()[3].first, "solver");
  EXPECT_EQ(j.fields()[4].first, "timing");

  const std::string path = test_temp_path("report.json");
  ASSERT_TRUE(report.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_EQ(Json::parse(text).at("report").as_string(), "demo");
  std::remove(path.c_str());
}

}  // namespace
