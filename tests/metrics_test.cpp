// The run-telemetry layer (obs/metrics.h): histogram bucket semantics,
// registry find-or-create and reset_values handle stability, the stable
// JSON dump/parse round-trip (byte-for-byte, like Trace::dump/parse),
// parse rejection of malformed documents, label sanitization, ScopedTimer
// monotonicity, lock-free recording under multi-threaded contention, and
// the declared metric table: its inventory matches docs/OBSERVABILITY.md,
// its metrics are minted at first use, and its handles are the named
// metrics (ctest labels: obs, tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/async_averaging.h"
#include "hull/delta_star.h"
#include "lp/simplex.h"
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
  std::uint64_t total_ns = 0;
  {
    ScopedTimer t(reg.histogram("k.seconds", time_buckets()), &total_ns);
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
  // The accumulator gets the observed time, in ns.
  EXPECT_EQ(h->sum(), static_cast<double>(total_ns) * 1e-9);
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

  // Declared handles: many threads released at once all resolve one
  // handle and one family label for the first time, and get one metric.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<const Counter*> seen(kThreads, nullptr);
  std::vector<const Counter*> seen_label(kThreads, nullptr);
  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      Counter& c = counter(m::fleet_heartbeats);
      Counter& l = counter(m::lp_status, 2);
      c.inc();
      l.inc();
      seen[t] = &c;
      seen_label[t] = &l;
    });
  }
  auto value_of = [](const std::string& metric) -> std::uint64_t {
    const Counter* c = global().find_counter(metric);
    return c == nullptr ? 0 : c->value();
  };
  const std::uint64_t before = value_of(name(m::fleet_heartbeats));
  const std::uint64_t before_label = value_of("lp.status.unbounded");
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const Counter* named = global().find_counter(name(m::fleet_heartbeats));
  ASSERT_NE(named, nullptr);
  const Counter* named_label = global().find_counter("lp.status.unbounded");
  ASSERT_NE(named_label, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], named);
    EXPECT_EQ(seen_label[t], named_label);
  }
  EXPECT_EQ(named->value() - before, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(named_label->value() - before_label,
            static_cast<std::uint64_t>(kThreads));
}

// -- The declared metric table -----------------------------------------------

std::set<std::string> table_names() {
  std::set<std::string> out;
  for (const Declared& d : kDeclared) out.insert(d.name);
  return out;
}

// The names of docs/OBSERVABILITY.md's inventory table: every backticked
// token of a row's first cell. A token `prefix.<label>` opens a family
// whose labels are the dot-free tokens after it; with none listed, the
// family is open (its labels are runtime strings).
struct DocInventory {
  std::set<std::string> names;
  std::set<std::string> open_prefixes;
};

DocInventory read_doc_inventory() {
  std::ifstream in(RBVC_OBSERVABILITY_DOC);
  EXPECT_TRUE(in.good()) << "cannot open " << RBVC_OBSERVABILITY_DOC;
  DocInventory inv;
  std::string line;
  bool in_section = false, in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("## Metric inventory", 0) == 0) {
      in_section = true;
      continue;
    }
    if (!in_section) continue;
    if (line.rfind("|", 0) != 0) {
      if (in_table) break;  // the first table ends the inventory
      continue;
    }
    in_table = true;
    const std::size_t end = line.find('|', 1);
    const std::string cell = line.substr(1, end - 1);
    std::vector<std::string> tokens;
    for (std::size_t a = cell.find('`'); a != std::string::npos;) {
      const std::size_t b = cell.find('`', a + 1);
      if (b == std::string::npos) break;
      tokens.push_back(cell.substr(a + 1, b - a - 1));
      a = cell.find('`', b + 1);
    }
    std::string family;
    bool labelled = false;
    auto close_family = [&] {
      if (!family.empty() && !labelled) inv.open_prefixes.insert(family);
      family.clear();
    };
    for (const std::string& t : tokens) {
      const std::size_t lt = t.find('<');
      if (lt != std::string::npos) {
        close_family();
        family = t.substr(0, lt);
        labelled = false;
      } else if (t.find('.') == std::string::npos) {
        if (!family.empty()) {
          inv.names.insert(family + t);
          labelled = true;
        }
      } else {
        close_family();
        inv.names.insert(t);
      }
    }
    close_family();
  }
  return inv;
}

TEST(MetricTableTest, InventoryInTheDocsNamesEveryDeclaredMetric) {
  const DocInventory doc = read_doc_inventory();
  const std::set<std::string> table = table_names();
  for (const std::string& n : table) {
    EXPECT_TRUE(doc.names.count(n)) << n << " is declared but not documented";
  }
  for (const std::string& n : doc.names) {
    EXPECT_TRUE(table.count(n)) << n << " is documented but not declared";
  }
  const std::set<std::string> open(std::begin(kOpenFamilyPrefixes),
                                   std::end(kOpenFamilyPrefixes));
  EXPECT_EQ(doc.open_prefixes, open);
}

TEST(MetricTableTest, RowsAreUniqueLegalNames) {
  EXPECT_EQ(table_names().size(), std::size(kDeclared));
  Registry reg;
  for (const Declared& d : kDeclared) {
    EXPECT_NO_THROW(reg.counter(d.name)) << d.name;
  }
}

TEST(MetricTableTest, DeclaredMetricsEnterTheRegistryAtFirstUse) {
  const std::string before = global().dump_json();
  EXPECT_EQ(before.find(name(m::workload_rbc_episodes)), std::string::npos);
  EXPECT_EQ(before.find("consensus.verify_rejects."), std::string::npos);

  counter(m::workload_rbc_episodes).inc();
  // One family label mints that label only.
  counter(m::verify_rejects,
          static_cast<std::size_t>(consensus::VerifyReject::kValueMismatch))
      .inc();
  const std::string after = global().dump_json();
  EXPECT_NE(after.find(name(m::workload_rbc_episodes)), std::string::npos);
  EXPECT_NE(after.find("consensus.verify_rejects.value_mismatch"),
            std::string::npos);
  EXPECT_EQ(after.find("consensus.verify_rejects.bad_view_id"),
            std::string::npos);
  EXPECT_EQ(after.find("consensus.verify_rejects.malformed_view"),
            std::string::npos);
  EXPECT_EQ(after.find("consensus.verify_rejects.rule_threw"),
            std::string::npos);
  EXPECT_THROW(counter(m::verify_rejects, 4), invalid_argument);
}

TEST(MetricTableTest, HandlesAreTheNamedMetrics) {
  Registry& reg = global();
  for (std::uint16_t row = 0; row < std::size(kDeclared); ++row) {
    // Resolve first: that is what mints the metric.
    const Declared& d = kDeclared[row];
    switch (d.kind) {
      case Kind::kCounter: {
        const Counter* c = &counter(Handle<Counter>{row});
        EXPECT_EQ(c, reg.find_counter(d.name)) << d.name;
        break;
      }
      case Kind::kGauge: {
        const Gauge* g = &gauge(Handle<Gauge>{row});
        EXPECT_EQ(g, reg.find_gauge(d.name)) << d.name;
        break;
      }
      case Kind::kCountHistogram:
      case Kind::kTimeHistogram: {
        const Histogram& h = histogram(Handle<Histogram>{row});
        EXPECT_EQ(&h, reg.find_histogram(d.name)) << d.name;
        EXPECT_EQ(h.bounds(), d.kind == Kind::kTimeHistogram
                                  ? time_buckets()
                                  : count_buckets())
            << d.name;
        break;
      }
    }
  }
  // Family labels follow their enums.
  for (lp::Status s : {lp::Status::kOptimal, lp::Status::kInfeasible,
                       lp::Status::kUnbounded, lp::Status::kIterLimit}) {
    const Counter* c = &counter(m::lp_status, static_cast<std::size_t>(s));
    EXPECT_EQ(c,
              reg.find_counter(std::string("lp.status.") + lp::to_string(s)));
  }
  using Method = DeltaStarResult::Method;
  const std::pair<Method, const char*> methods[] = {
      {Method::kGammaNonempty, "gamma_nonempty"},
      {Method::kSimplexInradius, "simplex_inradius"},
      {Method::kNumerical, "numerical"}};
  for (const auto& [method, label] : methods) {
    const Counter* c =
        &counter(m::delta_star_method, static_cast<std::size_t>(method));
    EXPECT_EQ(c, reg.find_counter(std::string("geom.delta_star.method.") +
                                  label));
  }
  using consensus::VerifyReject;
  const std::pair<VerifyReject, const char*> reasons[] = {
      {VerifyReject::kBadViewId, "bad_view_id"},
      {VerifyReject::kMalformedView, "malformed_view"},
      {VerifyReject::kRuleThrew, "rule_threw"},
      {VerifyReject::kValueMismatch, "value_mismatch"}};
  for (const auto& [why, label] : reasons) {
    const Counter* c =
        &counter(m::verify_rejects, static_cast<std::size_t>(why));
    EXPECT_EQ(c, reg.find_counter(std::string("consensus.verify_rejects.") +
                                  label));
  }
  // Open families publish by name, sanitized.
  const Counter* sent = &counter(m::sim_async_sent, "rbc echo");
  EXPECT_EQ(sent, reg.find_counter("sim.async.sent.rbc_echo"));
}

}  // namespace
}  // namespace rbvc::obs
