/// Unit tests for the telemetry module: log-linear histogram bucket
/// geometry, percentile estimates against exact order statistics,
/// sharded counter merging, snapshot merge algebra, the registry's text
/// and JSON expositions, and the chrome://tracing recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::telemetry {
namespace {

// ---------------------------------------------------------------------
// Bucket geometry

TEST(HistogramBuckets, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < kHistogramSubBuckets; ++v) {
    size_t index = HistogramBucketIndex(v);
    EXPECT_EQ(index, static_cast<size_t>(v));
    EXPECT_EQ(HistogramBucketLowerBound(index), v);
    EXPECT_EQ(HistogramBucketUpperBound(index), v + 1);
  }
}

TEST(HistogramBuckets, EveryValueLandsInsideItsBucket) {
  std::vector<uint64_t> probes = {0, 1, 15, 16, 17, 31, 32, 33, 63, 64,
                                  100, 1000, 4095, 4096, 4097, 65535};
  // Powers of two and their neighbours across the full uint64 range —
  // the exact spots where decade/sub-bucket arithmetic can be off by one.
  for (int shift = 4; shift < 64; ++shift) {
    uint64_t p = uint64_t{1} << shift;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  probes.push_back(~uint64_t{0});
  for (uint64_t v : probes) {
    size_t index = HistogramBucketIndex(v);
    ASSERT_LT(index, kHistogramBuckets) << "value " << v;
    EXPECT_LE(HistogramBucketLowerBound(index), v) << "value " << v;
    if (index + 1 < kHistogramBuckets) {
      EXPECT_LT(v, HistogramBucketUpperBound(index)) << "value " << v;
    }
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndBoundsChain) {
  // Lower bounds strictly increase and each upper bound is the next
  // bucket's lower bound: the buckets tile the axis with no gaps.
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_LT(HistogramBucketLowerBound(i), HistogramBucketLowerBound(i + 1));
    EXPECT_EQ(HistogramBucketUpperBound(i), HistogramBucketLowerBound(i + 1));
  }
}

TEST(HistogramBuckets, RelativeWidthIsAtMostOneSixteenth) {
  // The advertised accuracy contract: beyond the unit buckets, a
  // bucket's width never exceeds 1/16 of its lower bound.
  for (size_t i = kHistogramSubBuckets; i + 1 < kHistogramBuckets; ++i) {
    uint64_t lo = HistogramBucketLowerBound(i);
    uint64_t width = HistogramBucketUpperBound(i) - lo;
    EXPECT_LE(width * kHistogramSubBuckets, lo) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------
// Percentiles vs. exact order statistics

TEST(HistogramQuantile, MatchesExactSortWithinBucketError) {
  Histogram hist;
  std::vector<uint64_t> values;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform spread over ~6 decades, the shape of a latency
    // distribution with a long tail.
    double exponent = 1.0 + 5.0 * rng.Uniform();
    auto v = static_cast<uint64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    auto rank = static_cast<uint64_t>(q * static_cast<double>(values.size()));
    if (rank < 1) rank = 1;
    double exact = static_cast<double>(values[rank - 1]);
    double approx = snap.Quantile(q);
    // The target rank's sample sits inside the bucket the estimate is
    // interpolated in, so the estimate is off by at most one bucket
    // width: 6.25% of the value (plus interpolation landing anywhere
    // within the bucket).
    EXPECT_NEAR(approx, exact, exact / 16.0 + 1.0) << "q=" << q;
  }
}

TEST(HistogramQuantile, EdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_TRUE(empty.empty());

  Histogram one;
  one.Record(5);
  HistogramSnapshot snap = one.Snapshot();
  EXPECT_FALSE(snap.empty());
  // A single sample answers every quantile exactly — p100 must be the
  // recorded 5, not the bucket's upper bound.
  EXPECT_EQ(snap.Quantile(0.0), 5.0);
  EXPECT_EQ(snap.Quantile(0.5), 5.0);
  EXPECT_EQ(snap.Quantile(1.0), 5.0);
  EXPECT_EQ(snap.max, 5u);
  EXPECT_EQ(snap.Mean(), 5.0);
}

// ---------------------------------------------------------------------
// Counter / gauge

TEST(Counter, SumsAcrossThreadShards) {
  Counter counter;
  counter.Add();
  counter.Add(9);
  EXPECT_EQ(counter.Value(), 10u);

  // Each thread lands on some shard; Value() must see every shard's
  // contribution after the threads join.
  constexpr int kThreads = 2 * Counter::kShards + 1;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), 10u + kThreads * kPerThread);
}

TEST(Gauge, SetAddSubAndRaw) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  gauge.Add(3);
  gauge.Sub();
  EXPECT_EQ(gauge.Value(), 9);
}

// ---------------------------------------------------------------------
// Snapshot merge algebra

TEST(HistogramSnapshot, MergeAddsCountsAndKeepsMax) {
  Histogram a;
  Histogram b;
  for (uint64_t v : {1, 2, 3}) a.Record(v);
  for (uint64_t v : {100, 200}) b.Record(v);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.sum, 306u);
  EXPECT_EQ(merged.max, 200u);

  // Merging into an empty snapshot adopts the other's buckets.
  HistogramSnapshot fresh;
  fresh.Merge(merged);
  EXPECT_EQ(fresh.count, 5u);
  EXPECT_EQ(fresh.sum, 306u);

  // Histogram::Merge folds a snapshot back into a live histogram (the
  // per-round -> global aggregation step).
  Histogram global;
  global.Record(1000);
  global.Merge(merged);
  HistogramSnapshot total = global.Snapshot();
  EXPECT_EQ(total.count, 6u);
  EXPECT_EQ(total.sum, 1306u);
  EXPECT_EQ(total.max, 1000u);
}

// ---------------------------------------------------------------------
// Registry and expositions

TEST(Registry, ResolvesStablePointers) {
  Registry registry;
  Counter* counter = registry.GetCounter("requests_total");
  EXPECT_EQ(counter, registry.GetCounter("requests_total"));
  EXPECT_NE(counter, registry.GetCounter("other_total"));
  EXPECT_EQ(registry.GetGauge("depth"), registry.GetGauge("depth"));
  EXPECT_EQ(registry.GetHistogram("lat_ns"), registry.GetHistogram("lat_ns"));
}

TEST(Registry, TextExpositionShape) {
  Registry registry;
  registry.GetCounter("requests_total")->Add(3);
  registry.GetGauge("queue_depth")->Set(-4);
  Histogram* hist = registry.GetHistogram("latency_ns");
  hist->Record(5);
  hist->Record(5);
  hist->Record(1000);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE requests_total counter\nrequests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth -4\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ns histogram\n"), std::string::npos);
  // Cumulative buckets: the value-5 bucket [5,6) reports 2, +Inf
  // reports all 3, and sum/count close the series.
  EXPECT_NE(text.find("latency_ns_bucket{le=\"6\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_ns_sum 1010\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_count 3\n"), std::string::npos);
}

TEST(Registry, JsonSnapshotShape) {
  Registry registry;
  registry.GetCounter("c")->Add(2);
  registry.GetGauge("g")->Set(-1);
  registry.GetHistogram("h")->Record(64);
  std::string json = registry.JsonSnapshot().Dump(0);  // compact form
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":64"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace recorder

TEST(TraceRecorder, EmitsChromeTraceJson) {
  TraceRecorder recorder;
  double start = TraceNowUs();
  recorder.RecordSpan("Pa", "round", start, start + 1500.0);
  recorder.RecordInstant("protocol_error.conn.3", "connection");
  EXPECT_EQ(recorder.size(), 2u);
  std::string json = recorder.ToJson();  // compact Dump(0) form
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Pa\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500"), std::string::npos);
}

TEST(TraceRecorder, NullSpanIsNoOp) {
  // TraceSpan against a null recorder (tracing disabled) records nothing
  // and must not crash — the default state of every instrumented binary.
  { TraceSpan span(nullptr, "Pa", "round"); }
  TraceRecorder recorder;
  {
    TraceSpan span(&recorder, "Pb", "round");
    span.Close();
    span.Close();  // idempotent
  }
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(ScopedTraceFile, WritesFileAndClearsGlobal) {
  std::string path = ::testing::TempDir() + "/privshape_trace_test.json";
  {
    ScopedTraceFile trace(path);
    ASSERT_TRUE(trace.enabled());
    ASSERT_NE(GlobalTrace(), nullptr);
    TraceSpan span(GlobalTrace(), "Pa", "round");
  }
  EXPECT_EQ(GlobalTrace(), nullptr);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.str().find("\"Pa\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ScopedTraceFile, EmptyPathDisablesTracing) {
  ScopedTraceFile trace("");
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(GlobalTrace(), nullptr);
}

}  // namespace
}  // namespace privshape::telemetry
