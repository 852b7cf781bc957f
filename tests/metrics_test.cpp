// The run-telemetry layer (obs/metrics.h): histogram bucket semantics,
// registry find-or-create and reset_values handle stability, the stable
// JSON dump/parse round-trip (byte-for-byte, like Trace::dump/parse),
// parse rejection of malformed documents, label sanitization, ScopedTimer
// monotonicity, and lock-free recording under multi-threaded contention
// (ctest labels: obs, tsan).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rbvc::obs {
namespace {

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  // bucket i counts v <= bounds[i] (and > bounds[i-1]); overflow is last.
  EXPECT_EQ(h.bucket_of(-5.0), 0u);
  EXPECT_EQ(h.bucket_of(0.5), 0u);
  EXPECT_EQ(h.bucket_of(1.0), 0u);  // boundary lands in the lower bucket
  EXPECT_EQ(h.bucket_of(1.0000001), 1u);
  EXPECT_EQ(h.bucket_of(10.0), 1u);
  EXPECT_EQ(h.bucket_of(100.0), 2u);
  EXPECT_EQ(h.bucket_of(100.0001), 3u);  // overflow bucket

  h.observe(1.0);
  h.observe(10.0);
  h.observe(1e9);
  ASSERT_EQ(h.counts().size(), 4u);  // bounds.size() + 1
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 10.0 + 1e9);
}

TEST(HistogramTest, AddPublishesATallyAsIfObserved) {
  Histogram observed({1.0, 10.0, 100.0});
  Histogram batched({1.0, 10.0, 100.0});
  std::vector<std::uint64_t> counts(4, 0);
  std::uint64_t sum = 0;
  for (std::uint64_t v : {0, 1, 3, 10, 11, 99, 100, 101, 5000}) {
    observed.observe(static_cast<double>(v));
    ++counts[batched.bucket_of(static_cast<double>(v))];
    sum += v;
  }
  batched.add(counts, static_cast<double>(sum));
  EXPECT_EQ(batched.counts(), observed.counts());
  EXPECT_EQ(batched.total(), observed.total());
  EXPECT_EQ(batched.sum(), observed.sum());
  // One count per bucket, overflow included.
  EXPECT_THROW(batched.add({1, 2}, 3.0), invalid_argument);
}

TEST(HistogramTest, BoundsMustBeStrictlyIncreasing) {
  EXPECT_THROW(Histogram({1.0, 1.0}), invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), invalid_argument);
  EXPECT_NO_THROW(Histogram({}));       // overflow-only histogram is legal
  EXPECT_NO_THROW(Histogram({-1.0, 0.0, 1.0}));
}

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  Registry reg;
  Counter& c = reg.counter("a.count");
  c.inc(3);
  EXPECT_EQ(reg.counter("a.count").value(), 3u);  // same entry
  EXPECT_EQ(&reg.counter("a.count"), &c);
  EXPECT_EQ(reg.find_counter("a.count")->value(), 3u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  Histogram& h = reg.histogram("a.hist", {1.0, 2.0});
  // Bounds are fixed by the first creation; later calls ignore theirs.
  EXPECT_EQ(&reg.histogram("a.hist", {5.0}), &h);
  EXPECT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryTest, MetricNamesAreValidated) {
  Registry reg;
  EXPECT_THROW(reg.counter(""), invalid_argument);
  EXPECT_THROW(reg.counter("has space"), invalid_argument);
  EXPECT_THROW(reg.gauge("quote\""), invalid_argument);
  EXPECT_NO_THROW(reg.counter("A-Za-z0-9_.:/-ok"));
}

TEST(RegistryTest, ResetValuesZeroesButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", count_buckets());
  c.inc(7);
  g.set(2.5);
  h.observe(3.0);

  reg.reset_values();
  EXPECT_EQ(reg.size(), 3u);  // entries survive, values don't
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0.0);

  // The pre-reset handles still feed the same registry entries.
  c.inc();
  EXPECT_EQ(reg.find_counter("c")->value(), 1u);
}

TEST(RegistryTest, DumpParseRoundTripsByteForByte) {
  Registry reg;
  reg.counter("sim.async.messages_sent").inc(12345);
  reg.counter("lp.solves").inc(1);
  reg.gauge("workload.sync.achieved_delta").set(0.1e-17);
  reg.gauge("neg").set(-3.75);
  reg.histogram("lp.seconds", time_buckets()).observe(2.5e-5);
  Histogram& h = reg.histogram("rounds", {1.0, 2.0, 4.0});
  h.observe(1.0);
  h.observe(3.0);
  h.observe(100.0);

  const std::string dump = reg.dump_json();
  const Registry back = Registry::parse(dump);
  EXPECT_EQ(back.dump_json(), dump);  // serialization is a fixpoint

  EXPECT_EQ(back.find_counter("sim.async.messages_sent")->value(), 12345u);
  EXPECT_DOUBLE_EQ(back.find_gauge("neg")->value(), -3.75);
  const Histogram* hb = back.find_histogram("rounds");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->total(), 3u);
  EXPECT_DOUBLE_EQ(hb->sum(), 104.0);
  EXPECT_EQ(hb->counts(), h.counts());
}

TEST(RegistryTest, EmptyRegistryRoundTrips) {
  Registry reg;
  const std::string dump = reg.dump_json();
  EXPECT_EQ(dump,
            "{\n"
            "  \"version\": 1,\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
  EXPECT_EQ(Registry::parse(dump).dump_json(), dump);
}

TEST(RegistryTest, ParseRejectsMalformedDocuments) {
  const std::string good = [] {
    Registry reg;
    reg.counter("c").inc(1);
    return reg.dump_json();
  }();
  EXPECT_NO_THROW(Registry::parse(good));
  EXPECT_THROW(Registry::parse(""), invalid_argument);
  EXPECT_THROW(Registry::parse("{}"), invalid_argument);  // missing sections
  EXPECT_THROW(Registry::parse(good + "x"), invalid_argument);  // trailing
  EXPECT_THROW(Registry::parse(good.substr(0, good.size() / 2)),
               invalid_argument);  // truncated
  // Unknown schema versions are rejected, not misread.
  std::string future = good;
  future.replace(future.find("\"version\": 1"),
                 std::string("\"version\": 1").size(), "\"version\": 99");
  EXPECT_THROW(Registry::parse(future), invalid_argument);
  // Histogram counts must be bounds.size() + 1.
  EXPECT_THROW(
      Registry::parse("{\n\"version\": 1,\n\"counters\": {},\n"
                      "\"gauges\": {},\n\"histograms\": {\"h\": "
                      "{\"bounds\": [1, 2], \"counts\": [0, 1], "
                      "\"sum\": 0}}\n}\n"),
      invalid_argument);
  // Negative counter values are not counters.
  EXPECT_THROW(
      Registry::parse("{\n\"version\": 1,\n\"counters\": {\"c\": -1},\n"
                      "\"gauges\": {},\n\"histograms\": {}\n}\n"),
      invalid_argument);
}

TEST(RegistryTest, ParsedSnapshotIsDataNotALiveGate) {
  Registry reg;
  reg.set_enabled(true);
  EXPECT_FALSE(Registry::parse(reg.dump_json()).enabled());
}

TEST(SanitizeLabelTest, MapsHostileKindsIntoTheNameCharset) {
  EXPECT_EQ(sanitize_label("echo"), "echo");
  EXPECT_EQ(sanitize_label("rbc/echo:2"), "rbc/echo:2");
  EXPECT_EQ(sanitize_label("forged kind\n{evil}"), "forged_kind__evil_");
  EXPECT_EQ(sanitize_label(""), "unknown");
  // Sanitized labels always make legal metric names.
  Registry reg;
  EXPECT_NO_THROW(reg.counter("sim.sent." + sanitize_label("\"\\ ")));
}

TEST(ScopedTimerTest, ElapsedIsMonotoneAndObservedOnDestruction) {
  Registry reg;
  {
    ScopedTimer t(reg, "k.seconds");
    const double a = t.elapsed_seconds();
    EXPECT_GE(a, 0.0);
    // Burn a little time; steady clock never goes backwards.
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
    const double b = t.elapsed_seconds();
    EXPECT_GE(b, a);
  }
  const Histogram* h = reg.find_histogram("k.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds(), time_buckets());
  EXPECT_EQ(h->total(), 1u);
  EXPECT_GE(h->sum(), 0.0);
}

TEST(GlobalRegistryTest, IsASingletonWithStableHandles) {
  Counter& c = global().counter("test.metrics_test.pings");
  const std::uint64_t before = c.value();
  global().counter("test.metrics_test.pings").inc();
  EXPECT_EQ(c.value(), before + 1);
}

TEST(RegistryTest, ResetWallclockZeroesOnlyTimeHistograms) {
  Registry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(2.5);
  reg.histogram("t.seconds", time_buckets()).observe(0.01);
  reg.histogram("depth", count_buckets()).observe(3.0);
  reg.reset_wallclock_values();
  EXPECT_EQ(reg.counter("c").value(), 5u);
  EXPECT_EQ(reg.gauge("g").value(), 2.5);
  EXPECT_EQ(reg.histogram("t.seconds", time_buckets()).total(), 0u);
  EXPECT_EQ(reg.histogram("t.seconds", time_buckets()).sum(), 0.0);
  EXPECT_EQ(reg.histogram("depth", count_buckets()).total(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: the parallel episode executor hammers one global registry
// from every worker, so recording must lose nothing. These tests are the
// TSan surface for the sharded-counter / atomic-histogram design.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, ShardedCounterLosesNoIncrements) {
  Registry reg;
  Counter& c = reg.counter("concurrent.pings");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);  // == a serial total
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ConcurrencyTest, HistogramObserveIsExactUnderContention) {
  Registry reg;
  Histogram& h = reg.histogram("concurrent.depth", {1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // 0.5 is exactly representable, so the CAS-accumulated sum has one
    // exact value regardless of addition order.
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(0.5);
    });
  }
  for (auto& t : threads) t.join();
  constexpr std::uint64_t kTotal = std::uint64_t(kThreads) * kPerThread;
  EXPECT_EQ(h.total(), kTotal);
  EXPECT_EQ(h.counts()[0], kTotal);
  EXPECT_EQ(h.sum(), 0.5 * static_cast<double>(kTotal));
}

TEST(ConcurrencyTest, GaugeAndEnableFlagAreAtomic) {
  Registry reg;
  Gauge& g = reg.gauge("concurrent.level");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, &g, t] {
      for (int i = 0; i < 2000; ++i) {
        g.set(static_cast<double>(t));
        reg.set_enabled(t % 2 == 0);
        (void)reg.enabled();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Last-writer-wins: the value is one of the written ones, never torn.
  const double v = g.value();
  EXPECT_TRUE(v == 0.0 || v == 1.0 || v == 2.0 || v == 3.0);
}

TEST(ConcurrencyTest, HandleCreationRacesWithRecording) {
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 500; ++i) {
        reg.counter("race.c" + std::to_string(i % 7)).inc();
        reg.histogram("race.h", count_buckets()).observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t total = 0;
  for (int i = 0; i < 7; ++i) {
    total += reg.counter("race.c" + std::to_string(i)).value();
  }
  EXPECT_EQ(total, 4u * 500u);
  EXPECT_EQ(reg.histogram("race.h", count_buckets()).total(), 4u * 500u);
}

}  // namespace
}  // namespace rbvc::obs
