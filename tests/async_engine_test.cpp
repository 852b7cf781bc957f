#include "sim/async_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rbvc::sim {
namespace {

// Echoes every "ping" once as "pong"; decides after hearing `need` pongs.
class EchoProcess final : public AsyncProcess {
 public:
  EchoProcess(std::size_t n, std::size_t need) : n_(n), need_(need) {}

  void init(Outbox& out) override {
    Message m;
    m.kind = "ping";
    out.broadcast(n_, m);
  }

  void on_message(const Message& m, Outbox& out) override {
    if (m.kind == "ping") {
      Message r;
      r.kind = "pong";
      out.send(m.from, std::move(r));
    } else if (m.kind == "pong") {
      ++pongs_;
    }
  }

  bool decided() const override { return pongs_ >= need_; }
  std::size_t pongs() const { return pongs_; }

 private:
  std::size_t n_, need_, pongs_ = 0;
};

TEST(AsyncEngineTest, AllMessagesEventuallyDelivered) {
  AsyncEngine e(std::make_unique<RandomScheduler>(1));
  for (int i = 0; i < 4; ++i) e.add(std::make_unique<EchoProcess>(4, 4));
  const auto stats = e.run({0, 1, 2, 3}, 10'000);
  EXPECT_TRUE(stats.all_decided);
  // 16 pings + 16 pongs.
  EXPECT_EQ(stats.sends, 32u);
}

TEST(AsyncEngineTest, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    AsyncEngine e(std::make_unique<RandomScheduler>(seed));
    for (int i = 0; i < 3; ++i) e.add(std::make_unique<EchoProcess>(3, 3));
    return e.run({0, 1, 2}, 10'000).deliveries;
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

TEST(AsyncEngineTest, EventLimitRespected) {
  AsyncEngine e(std::make_unique<RandomScheduler>(2));
  for (int i = 0; i < 4; ++i) {
    e.add(std::make_unique<EchoProcess>(4, 1'000'000));
  }
  const auto stats = e.run({0}, 10);
  EXPECT_EQ(stats.deliveries, 10u);
  EXPECT_FALSE(stats.all_decided);
}

TEST(AsyncEngineTest, LaggardSchedulerStillFair) {
  // Process 0 is lagged, but all its messages must eventually arrive.
  AsyncEngine e(std::make_unique<LaggardScheduler>(3, std::vector<ProcessId>{0}));
  for (int i = 0; i < 3; ++i) e.add(std::make_unique<EchoProcess>(3, 3));
  const auto stats = e.run({0, 1, 2}, 100'000);
  EXPECT_TRUE(stats.all_decided);
}

TEST(AsyncEngineTest, LaggardPrefersFastMessages) {
  // With two pending messages -- one lagged, one not -- the scheduler should
  // mostly pick the fast one first. Statistical check over many picks.
  LaggardScheduler sched(7, {0}, /*leak=*/0.0);
  Message lagged;
  lagged.from = 0;
  lagged.to = 1;
  Message fast;
  fast.from = 1;
  fast.to = 2;
  PendingPool pending;
  for (const Message& m : {lagged, fast}) pending.push(m, sched.prefers(m));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sched.pick(pending), 1u);
  }
}

// Random delivery that records the pool depth at every pick.
class DepthRecordingScheduler final : public Scheduler {
 public:
  explicit DepthRecordingScheduler(std::vector<std::size_t>& depths)
      : inner_(9), depths_(depths) {}
  std::size_t pick(const PendingPool& pending) override {
    depths_.push_back(pending.size());
    return inner_.pick(pending);
  }

 private:
  RandomScheduler inner_;
  std::vector<std::size_t>& depths_;
};

TEST(AsyncEngineTest, QueueDepthTallyEqualsPerPickDepths) {
  // The engine tallies depths per run and publishes them once; the
  // histogram must read exactly as if every pick had been observed.
  obs::Histogram& h =
      obs::global().histogram("sim.async.queue_depth", obs::count_buckets());
  std::vector<std::uint64_t> want = h.counts();
  const std::uint64_t total0 = h.total();
  double want_sum = h.sum();
  std::vector<std::size_t> depths;
  AsyncEngine e(std::make_unique<DepthRecordingScheduler>(depths));
  for (int i = 0; i < 5; ++i) e.add(std::make_unique<EchoProcess>(5, 5));
  e.run({0, 1, 2, 3, 4}, 10'000);
  ASSERT_FALSE(depths.empty());
  for (std::size_t d : depths) {
    ++want[h.bucket_of(static_cast<double>(d))];
    want_sum += static_cast<double>(d);
  }
  EXPECT_EQ(h.counts(), want);
  EXPECT_EQ(h.total(), total0 + depths.size());
  EXPECT_EQ(h.sum(), want_sum);
}

TEST(AsyncEngineTest, FromFieldIsStamped) {
  class Spoof final : public AsyncProcess {
   public:
    void init(Outbox& out) override {
      Message m;
      m.kind = "x";
      m.from = 42;  // attempt to spoof: the engine must overwrite this
      out.send(1, std::move(m));
    }
    void on_message(const Message& m, Outbox&) override {
      froms_.push_back(m.from);
    }
    bool decided() const override { return froms_.size() >= 2; }
    std::vector<ProcessId> froms_;
  };
  AsyncEngine e(std::make_unique<RandomScheduler>(4));
  e.add(std::make_unique<Spoof>());
  e.add(std::make_unique<Spoof>());
  e.run({1}, 100);
  const auto& p1 = dynamic_cast<Spoof&>(e.process(1));
  ASSERT_EQ(p1.froms_.size(), 2u);
  for (ProcessId from : p1.froms_) EXPECT_LT(from, 2u);
}

// ---------------------------------------------------------------------------
// PendingPool against a std::vector that erases in place, and the laggard
// scheduler's indexed pick against the scan it replaced.
// ---------------------------------------------------------------------------

// A message whose meta[0] carries a serial number, so pool order is
// checkable against the reference.
Message tagged(int serial, ProcessId from, ProcessId to) {
  Message m("m", {serial});
  m.from = from;
  m.to = to;
  return m;
}

struct RefEntry {
  int serial = 0;
  bool preferred = false;
};

void expect_same_order(const PendingPool& pool,
                       const std::vector<RefEntry>& ref) {
  ASSERT_EQ(pool.size(), ref.size());
  std::vector<int> want_serials, got_serials;
  std::vector<std::size_t> want_preferred, got_preferred;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    want_serials.push_back(ref[i].serial);
    got_serials.push_back(pool[i].meta.at(0));
    if (ref[i].preferred) want_preferred.push_back(i);
  }
  ASSERT_EQ(got_serials, want_serials);
  ASSERT_EQ(pool.preferred(), want_preferred.size());
  for (std::size_t k = 0; k < pool.preferred(); ++k) {
    got_preferred.push_back(pool.index_of_preferred(k));
  }
  ASSERT_EQ(got_preferred, want_preferred);
}

TEST(AsyncEngineTest, PendingPoolMatchesVectorErasingInPlace) {
  // Alternating grow and drain phases: the pool swings between empty and
  // about a hundred live messages (two or more bitmap words), and 20,000
  // sends leave dead slots behind often enough that compaction (slots >=
  // 2 * live + 256) runs dozens of times.
  Rng rng(11);
  PendingPool pool;
  std::vector<RefEntry> ref;
  int sent = 0;
  std::size_t step = 0;
  while (sent < 20'000) {
    const bool growing = (step++ / 300) % 2 == 0;
    const bool push = ref.empty() || rng.next_double() < (growing ? 0.7 : 0.3);
    if (push) {
      const bool preferred = rng.below(3) != 0;
      pool.push(tagged(sent, rng.below(7), rng.below(7)), preferred);
      ref.push_back({sent, preferred});
      ++sent;
    } else {
      const std::size_t i = rng.below(ref.size());
      const Message m = pool.take(i);
      ASSERT_EQ(m.meta.at(0), ref[i].serial);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    }
    expect_same_order(pool, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!ref.empty()) {
    ASSERT_EQ(pool.take(0).meta.at(0), ref.front().serial);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.preferred(), 0u);

  // 256 sends taken oldest first: only the last take meets the compaction
  // threshold, so the pool compacts to empty and must stay usable.
  PendingPool fresh;
  for (int i = 0; i < 256; ++i) fresh.push(tagged(i, 0, 1), i % 2 == 0);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(fresh.take(0).meta.at(0), i);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.preferred(), 0u);
  fresh.push(tagged(1000, 0, 1), false);
  fresh.push(tagged(1001, 0, 1), true);
  expect_same_order(fresh, {{1000, false}, {1001, true}});
}

// The laggard pick as it was before the pool indexed preferred messages:
// scan the whole pool for messages that touch no laggard, then draw among
// them. Same draws, in the same order, from its own Rng.
std::size_t scan_pick(Rng& rng, const std::vector<ProcessId>& laggards,
                      double leak, const std::vector<Message>& pending) {
  auto lags = [&](ProcessId p) {
    return std::find(laggards.begin(), laggards.end(), p) != laggards.end();
  };
  if (rng.next_double() >= leak) {
    std::vector<std::size_t> fast;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!lags(pending[i].from) && !lags(pending[i].to)) fast.push_back(i);
    }
    if (!fast.empty()) return fast[rng.below(fast.size())];
  }
  return rng.below(pending.size());
}

// Drives the scheduler and the scan reference over one random workload of
// sends among processes [0, n): every pick must return the same index.
void expect_same_picks(std::uint64_t seed, std::vector<ProcessId> laggards,
                       double leak, std::size_t n) {
  LaggardScheduler sched(seed, laggards, leak);
  Rng ref_rng(seed);
  Rng work(seed ^ 0xABCDEF);
  PendingPool pool;
  std::vector<Message> ref;
  int serial = 0;
  auto send = [&](std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) {
      Message m = tagged(serial++, work.below(n), work.below(n));
      ref.push_back(m);
      pool.push(m, sched.prefers(m));
    }
  };
  send(3 * n);
  for (int pick = 0; pick < 5'000 && !ref.empty(); ++pick) {
    const std::size_t want = scan_pick(ref_rng, laggards, leak, ref);
    const std::size_t got = sched.pick(pool);
    ASSERT_EQ(got, want) << "pick " << pick << ", leak " << leak;
    ASSERT_EQ(pool.take(got).meta.at(0), ref[want].meta.at(0));
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(want));
    send(work.below(3));  // 0-2 sends per delivery: the pool breathes
    if (ref.empty()) send(n);
  }
}

TEST(AsyncEngineTest, LaggardPickMatchesScanReference) {
  for (double leak : {0.0, 0.02, 1.0}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed);
      expect_same_picks(seed, {0, 6}, leak, 7);  // the f = 2 sweeps' shape
      expect_same_picks(seed, {3}, leak, 4);
      expect_same_picks(seed, {}, leak, 4);  // nothing lags
      // Every process lags: the preferred set stays empty.
      expect_same_picks(seed, {0, 1, 2, 3}, leak, 4);
      // Laggard ids at and above the largest process id ever sent to.
      expect_same_picks(seed, {3, 4, 1000}, leak, 4);
      expect_same_picks(seed, {4, 1000}, leak, 4);
    }
  }
}

}  // namespace
}  // namespace rbvc::sim
