// Tests of the observability subsystem: metrics registry snapshots,
// histogram bucketing, the JSONL trace writer, phase timers, and the JSON
// parser that closes the loop.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace cftcg::obs {
namespace {

TEST(RegistryTest, GetOrCreateReturnsSameObject) {
  Registry registry;
  Counter& a = registry.GetCounter("fuzz.executions");
  Counter& b = registry.GetCounter("fuzz.executions");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3U);

  Gauge& g1 = registry.GetGauge("fuzz.exec_per_s");
  Gauge& g2 = registry.GetGauge("fuzz.exec_per_s");
  EXPECT_EQ(&g1, &g2);

  Histogram& h1 = registry.GetHistogram("phase.fuzz.seconds", {1, 2});
  Histogram& h2 = registry.GetHistogram("phase.fuzz.seconds", {99});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2U);
}

TEST(RegistryTest, SnapshotIsPointInTime) {
  Registry registry;
  Counter& c = registry.GetCounter("c");
  Gauge& g = registry.GetGauge("g");
  c.Add(5);
  g.Set(1.5);

  const RegistrySnapshot snap = registry.Snapshot();
  // Later updates must not leak into an already-taken snapshot.
  c.Add(100);
  g.Set(-2);
  registry.GetCounter("later");

  EXPECT_EQ(snap.CounterValue("c", 0), 5U);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("g", 0), 1.5);
  EXPECT_EQ(snap.CounterValue("later", 777), 777U);  // fallback: not in snapshot
  EXPECT_EQ(snap.counters.size(), 1U);

  const RegistrySnapshot snap2 = registry.Snapshot();
  EXPECT_EQ(snap2.CounterValue("c", 0), 105U);
  EXPECT_EQ(snap2.counters.size(), 2U);
}

TEST(RegistryTest, SnapshotEntriesSortedByName) {
  Registry registry;
  registry.GetCounter("zebra");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3U);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  // Bucket i counts samples with value <= bounds[i] (and > bounds[i-1]);
  // exact boundary values land in the lower bucket.
  h.Record(0.5);    // bucket 0
  h.Record(1.0);    // bucket 0 (== bound)
  h.Record(1.0001); // bucket 1
  h.Record(10.0);   // bucket 1
  h.Record(99.0);   // bucket 2
  h.Record(100.5);  // overflow
  h.Record(1e9);    // overflow

  const std::vector<std::uint64_t>& buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4U);
  EXPECT_EQ(buckets[0], 2U);
  EXPECT_EQ(buckets[1], 2U);
  EXPECT_EQ(buckets[2], 1U);
  EXPECT_EQ(buckets[3], 2U);
  EXPECT_EQ(h.count(), 7U);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(HistogramTest, SnapshotMeanAndJsonRoundTrip) {
  Registry registry;
  Histogram& h = registry.GetHistogram("h", {1.0});
  h.Record(0.5);
  h.Record(1.5);
  const RegistrySnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->Mean(), 1.0);

  // The exported JSON must parse back with our own parser.
  auto parsed = ParseJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const JsonValue* histograms = parsed.value().Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hj = histograms->Find("h");
  ASSERT_NE(hj, nullptr);
  EXPECT_DOUBLE_EQ(hj->NumberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(hj->NumberOr("sum", 0), 2.0);
}

TEST(TraceWriterTest, EveryLineParsesBackAsJson) {
  std::string buffer;
  TraceWriter writer(&buffer);
  writer.Emit(TraceEvent("start").Str("mode", "cftcg").U64("seed", 42));
  writer.Emit(TraceEvent("new").F64("time_s", 0.25).I64("delta", -3));
  // Strings that need escaping: quotes, backslash, newline, control char.
  writer.Emit(TraceEvent("note").Str("text", "a \"quoted\" \\ line\nwith\tcontrol\x01char"));
  writer.Emit(TraceEvent("stop"));
  writer.Flush();
  EXPECT_EQ(writer.events_written(), 4U);

  const auto lines = SplitString(buffer, '\n');
  std::vector<JsonValue> events;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.message() << " in: " << line;
    events.push_back(parsed.take());
  }
  ASSERT_EQ(events.size(), 4U);
  EXPECT_EQ(events[0].StringOr("ev", ""), "start");
  EXPECT_EQ(events[0].StringOr("mode", ""), "cftcg");
  EXPECT_DOUBLE_EQ(events[0].NumberOr("seed", 0), 42.0);
  EXPECT_DOUBLE_EQ(events[1].NumberOr("delta", 0), -3.0);
  EXPECT_EQ(events[2].StringOr("text", ""), "a \"quoted\" \\ line\nwith\tcontrol\x01char");
  EXPECT_EQ(events[3].StringOr("ev", ""), "stop");

  // Timestamps are monotonic non-decreasing.
  double prev = -1;
  for (const auto& ev : events) {
    const double t = ev.NumberOr("t", -1);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// A lane's in-memory events re-emitted into the campaign trace: re-stamped,
// tagged with the lane, payload untouched; non-records are dropped.
TEST(TraceWriterTest, ForwardRestampsAndTagsLaneEvents) {
  std::string lane_buffer;
  TraceWriter lane(&lane_buffer);
  lane.Emit(TraceEvent("new").U64("exec", 7).Str("chain", "a,b"));
  lane.Emit(TraceEvent("corpus").I64("id", 0));
  lane_buffer += "garbage\n";

  std::string buffer;
  TraceWriter writer(&buffer);
  writer.Forward(lane_buffer, 2);
  writer.Forward("", 0);
  EXPECT_EQ(writer.events_written(), 2U);
  std::vector<JsonValue> events;
  for (const auto& line : SplitString(buffer, '\n')) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.message() << " in: " << line;
    events.push_back(parsed.take());
  }
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].StringOr("ev", ""), "new");
  EXPECT_DOUBLE_EQ(events[0].NumberOr("exec", 0), 7.0);
  EXPECT_EQ(events[0].StringOr("chain", ""), "a,b");
  EXPECT_EQ(events[1].StringOr("ev", ""), "corpus");
  for (const auto& ev : events) EXPECT_DOUBLE_EQ(ev.NumberOr("lane", -1), 2.0);
}

TEST(ScopedTimerTest, RecordsPhaseHistogramAndTraceEvent) {
  Registry registry;
  std::string buffer;
  TraceWriter writer(&buffer);
  {
    ScopedTimer span("unit", &registry, &writer);
  }
  const RegistrySnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("phase.unit.seconds");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1U);
  EXPECT_GE(hs->sum, 0.0);

  auto parsed = ParseJson(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().StringOr("ev", ""), "phase");
  EXPECT_EQ(parsed.value().StringOr("name", ""), "unit");
}

TEST(ScopedTimerTest, StopIsIdempotent) {
  Registry registry;
  {
    ScopedTimer span("once", &registry);
    span.Stop();
    span.Stop();  // no second sample
  }                // destructor: still no second sample
  const RegistrySnapshot snap = registry.Snapshot();  // keep the snapshot alive
  const HistogramSnapshot* hs = snap.FindHistogram("phase.once.seconds");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1U);
}

TEST(JsonTest, ParsesScalarsAndNesting) {
  auto v = ParseJson(R"({"a":1.5,"b":"x","c":true,"d":null,"e":[1,2,3],"f":{"g":-2e3}})");
  ASSERT_TRUE(v.ok()) << v.message();
  EXPECT_DOUBLE_EQ(v.value().NumberOr("a", 0), 1.5);
  EXPECT_EQ(v.value().StringOr("b", ""), "x");
  const JsonValue* c = v.value().Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(c->boolean);
  const JsonValue* e = v.value().Find("e");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->items.size(), 3U);
  EXPECT_DOUBLE_EQ(e->items[2].number, 3.0);
  const JsonValue* f = v.value().Find("f");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->NumberOr("g", 0), -2000.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{}extra").ok());
  EXPECT_FALSE(ParseJson(R"({"a":})").ok());
  EXPECT_FALSE(ParseJson(R"({"a":1,})").ok());
  EXPECT_FALSE(ParseJson(R"(['single'])").ok());
  EXPECT_FALSE(ParseJson("{\"a\":\"unterminated}").ok());
}

TEST(JsonTest, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" back\\slash /slash \n\r\t \x02 end";
  const std::string doc = "{\"s\":\"" + JsonEscape(nasty) + "\"}";
  auto v = ParseJson(doc);
  ASSERT_TRUE(v.ok()) << v.message();
  EXPECT_EQ(v.value().StringOr("s", ""), nasty);
}

TEST(JsonTest, NumberRendering) {
  EXPECT_EQ(JsonNumber(3), "3");
  EXPECT_EQ(JsonNumber(-41), "-41");
  auto parsed = ParseJson("{\"x\":" + JsonNumber(0.125) + "}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().NumberOr("x", 0), 0.125);
  // Non-finite values are not representable in JSON: rendered as null.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

// Regression: values far beyond long long range were cast to integer
// before the magnitude guard (undefined behavior); they must render as
// doubles that parse back to the same value.
TEST(JsonTest, HugeMagnitudesRenderWithoutIntegerCast) {
  for (const double huge : {1e300, -1e300, 1e18, -1e18, 9.1e15}) {
    const std::string rendered = JsonNumber(huge);
    auto parsed = ParseJson("{\"x\":" + rendered + "}");
    ASSERT_TRUE(parsed.ok()) << parsed.message() << " rendering: " << rendered;
    EXPECT_DOUBLE_EQ(parsed.value().NumberOr("x", 0), huge) << rendered;
  }
}

// The same path end to end: a gauge holding 1e300 must survive the
// metrics-snapshot JSON serialization and parse back.
TEST(RegistryTest, SnapshotJsonSurvivesHugeGaugeValues) {
  Registry registry;
  registry.GetGauge("fuzz.huge").Set(1e300);
  registry.GetCounter("fuzz.count").Add(7);
  const std::string json = registry.Snapshot().ToJson();
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.message() << " in: " << json;
  const JsonValue* gauges = parsed.value().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->NumberOr("fuzz.huge", 0), 1e300);
}

// Emit must hold every JSONL line whole under concurrent emitters (the
// parallel engine's driver and workers share one TraceWriter).
TEST(TraceWriterTest, ConcurrentEmitKeepsLinesWhole) {
  std::string buffer;
  TraceWriter writer(&buffer);
  constexpr int kThreads = 4;
  constexpr int kEvents = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t]() {
      for (int i = 0; i < kEvents; ++i) {
        writer.Emit(TraceEvent("tick").I64("thread", t).I64("i", i).Str(
            "pad", "some payload to make interleaving torn writes likely"));
      }
    });
  }
  for (auto& t : threads) t.join();
  writer.Flush();
  EXPECT_EQ(writer.events_written(), static_cast<std::uint64_t>(kThreads * kEvents));

  const auto lines = SplitString(buffer, '\n');
  int parsed_count = 0;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.message() << " in: " << line;
    EXPECT_EQ(parsed.value().StringOr("ev", ""), "tick");
    ++parsed_count;
  }
  EXPECT_EQ(parsed_count, kThreads * kEvents);
}

TEST(JsonlTest, SkipsMalformedLinesAndCounts) {
  const std::string text =
      "{\"a\":1}\n"
      "not json at all\n"
      "\n"
      "   \t \n"
      "{\"a\":2}\r\n"
      "{\"trunc";  // killed mid-write, no trailing newline
  std::vector<double> seen;
  const JsonlStats stats = ForEachJsonl(text, [&](const JsonValue& v) {
    seen.push_back(v.NumberOr("a", -1));
  });
  EXPECT_EQ(stats.lines, 4U);  // blanks are not counted at all
  EXPECT_EQ(stats.parsed, 2U);
  EXPECT_EQ(stats.skipped, 2U);
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 2.0);
}

TEST(JsonlTest, EmptyInputYieldsZeroStats) {
  const JsonlStats stats = ForEachJsonl("", [](const JsonValue&) { FAIL(); });
  EXPECT_EQ(stats.lines, 0U);
  EXPECT_EQ(stats.parsed, 0U);
  EXPECT_EQ(stats.skipped, 0U);
}

TEST(ClockTest, StopwatchIsMonotonic) {
  const Stopwatch watch;
  const double a = watch.Elapsed();
  const double b = watch.Elapsed();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// Record is documented thread-safe: hammer one histogram from many threads
// and check nothing was lost. Run under TSan (the CI monitor-smoke job does)
// this also proves the relaxed-atomic scheme is race-free.
TEST(HistogramTest, ConcurrentRecordersLoseNoSamples) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Histogram h({1.0, 10.0, 100.0});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Values 1..kPerThread so min/max/sum are exactly predictable.
        h.Record(static_cast<double>(i) + 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum of 1..kPerThread per thread.
  const double per_thread_sum = static_cast<double>(kPerThread) * (kPerThread + 1) / 2.0;
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * per_thread_sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kPerThread));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : h.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  Registry registry;
  Histogram& h = registry.GetHistogram("q", {10.0, 20.0, 40.0});
  // 50 samples in (0,10], 30 in (10,20], 20 in (20,40].
  for (int i = 0; i < 50; ++i) h.Record(5.0);
  for (int i = 0; i < 30; ++i) h.Record(15.0);
  for (int i = 0; i < 20; ++i) h.Record(30.0);
  const RegistrySnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("q");
  ASSERT_NE(hs, nullptr);

  // Rank 50 of 100 is exactly the end of bucket 0 -> its upper bound, but
  // clamped into the observed [min, max] envelope where applicable.
  EXPECT_NEAR(hs->Quantile(0.50), 10.0, 1e-9);
  // Rank 80 ends bucket 1.
  EXPECT_NEAR(hs->Quantile(0.80), 20.0, 1e-9);
  // Rank 90 is halfway through bucket 2 (20,40] -> 30.
  EXPECT_NEAR(hs->Quantile(0.90), 30.0, 1e-9);
  // Extremes clamp to the observed envelope, never beyond.
  EXPECT_DOUBLE_EQ(hs->Quantile(0.0), 5.0);   // min
  EXPECT_DOUBLE_EQ(hs->Quantile(1.0), 30.0);  // max
}

TEST(HistogramTest, QuantileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Registry registry;
  Histogram& h = registry.GetHistogram("one", {1.0});
  h.Record(0.25);
  const RegistrySnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("one");
  ASSERT_NE(hs, nullptr);
  // A single sample answers every quantile with itself.
  EXPECT_DOUBLE_EQ(hs->Quantile(0.01), 0.25);
  EXPECT_DOUBLE_EQ(hs->Quantile(0.50), 0.25);
  EXPECT_DOUBLE_EQ(hs->Quantile(0.99), 0.25);
}

TEST(HistogramTest, QuantileOverflowBucketClampsToMax) {
  Registry registry;
  Histogram& h = registry.GetHistogram("ovf", {1.0});
  h.Record(0.5);
  for (int i = 0; i < 99; ++i) h.Record(50.0);  // overflow bucket, unbounded
  const RegistrySnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("ovf");
  ASSERT_NE(hs, nullptr);
  // The overflow bucket has no upper bound; the estimate must use the
  // observed max instead of inventing one.
  EXPECT_LE(hs->Quantile(0.99), 50.0);
  EXPECT_GT(hs->Quantile(0.99), 1.0);
}

}  // namespace
}  // namespace cftcg::obs
