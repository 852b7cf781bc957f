// Flight recorder + causal clock (obs/events.h), ctest labels: obs, tsan.
// Pins the ring's keep-newest wraparound, TSan-clean concurrent emit /
// snapshot, ring hand-over from exited threads to new ones, the JSONL
// dump/parse byte fixpoint, the Lamport meta stamp/strip roundtrip,
// SimTransport's never-stamps guarantee (sim ScheduleLog byte identity),
// and the RBVC_JOBS repro byte-identity contract with the trace sink armed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/property.h"
#include "net/sim_transport.h"
#include "obs/events.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

namespace ev = obs::events;

ev::Event make_event(std::uint64_t ts, std::uint64_t lc, std::int32_t node,
                     std::int32_t inst, ev::Type t, std::int64_t a,
                     std::int64_t b) {
  ev::Event e;
  e.ts_ns = ts;
  e.lamport = lc;
  e.node = node;
  e.instance = inst;
  e.type = t;
  e.a = a;
  e.b = b;
  return e;
}

TEST(EventRingTest, WraparoundKeepsTheNewest) {
  ev::Ring ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.emit(make_event(100 + static_cast<std::uint64_t>(i), 1, 0, -1,
                         ev::Type::kNote, i, 0));
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.emitted(), 20u);
  std::vector<ev::Event> got;
  ring.snapshot_into(got);
  ASSERT_EQ(got.size(), 8u);
  // Oldest-first, and only the last 8 of the 20 survive.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].a, 12 + i);
  }
}

TEST(EventRingTest, ConcurrentEmitAndSnapshotStayConsistent) {
  // TSan coverage: four writers hammer one ring while a reader snapshots.
  // Every snapshot must hold only fully published events (a == 2 * b).
  ev::Ring ring(64);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::vector<ev::Event> got;
    while (!done.load(std::memory_order_acquire)) {
      ring.snapshot_into(got);
      for (const auto& e : got) {
        ASSERT_EQ(e.a, 2 * e.b) << "torn event escaped the tag check";
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < 2000; ++i) {
        const std::int64_t b = w * 10000 + i;
        ring.emit(make_event(1, 1, w, -1, ev::Type::kNote, 2 * b, b));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.emitted(), 8000u);
  std::vector<ev::Event> final_snap;
  ring.snapshot_into(final_snap);
  EXPECT_EQ(final_snap.size(), 64u);
}

TEST(EventJsonlTest, DumpParseIsAByteFixpoint) {
  std::vector<ev::Event> evs;
  evs.push_back(make_event(0, 0, -1, -1, ev::Type::kNote, 0, 0));
  evs.push_back(make_event(123456789012345ull, 42, 3, 17,
                           ev::Type::kFrameRx, 41, 950));
  evs.push_back(make_event(7, (1ull << 59) + 5, 0, -1,
                           ev::Type::kInstanceDecided, 1, -12345));
  evs.push_back(make_event(8, 9, 255, 2147483647, ev::Type::kDecision,
                           -9223372036854775807ll - 1, 9223372036854775807ll));
  const std::string text = ev::dump_jsonl(evs);
  const auto parsed = ev::parse_jsonl(text);
  ASSERT_EQ(parsed.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(parsed[i], evs[i]) << "event " << i;
  }
  EXPECT_EQ(ev::dump_jsonl(parsed), text);  // the fixpoint
}

TEST(EventJsonlTest, MalformedLinesAreRejectedNotSkipped) {
  const std::string good =
      ev::dump_jsonl({make_event(1, 2, 0, -1, ev::Type::kNote, 0, 0)});
  EXPECT_NO_THROW(ev::parse_jsonl(good));
  // Blank line, wrong key order, unknown type name, trailing garbage.
  EXPECT_THROW(ev::parse_jsonl(good + "\n" + good), invalid_argument);
  EXPECT_THROW(
      ev::parse_jsonl(
          "{\"lc\":2,\"ts\":1,\"node\":0,\"inst\":-1,\"type\":\"note\","
          "\"a\":0,\"b\":0}\n"),
      invalid_argument);
  EXPECT_THROW(
      ev::parse_jsonl(
          "{\"ts\":1,\"lc\":2,\"node\":0,\"inst\":-1,\"type\":\"nope\","
          "\"a\":0,\"b\":0}\n"),
      invalid_argument);
  std::string trailing = good;
  trailing.insert(trailing.size() - 1, " ");
  EXPECT_THROW(ev::parse_jsonl(trailing), invalid_argument);
}

TEST(EventJsonlTest, TypeNamesRoundTrip) {
  for (std::uint16_t i = 0; i < static_cast<std::uint16_t>(ev::Type::kCount_);
       ++i) {
    const auto t = static_cast<ev::Type>(i);
    const auto back = ev::type_from_name(ev::type_name(t));
    ASSERT_TRUE(back.has_value()) << ev::type_name(t);
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(ev::type_from_name("unknown").has_value());
}

TEST(LamportTest, StampStripRoundTrip) {
  for (const std::uint64_t clock :
       {std::uint64_t{1}, std::uint64_t{0x3FFFFFFF},
        (std::uint64_t{1} << 59) + 12345}) {
    std::vector<int> meta{7, 1, 2};
    ev::stamp_lamport(meta, clock);
    ASSERT_EQ(meta.size(), 6u);
    EXPECT_EQ(meta.back(), ev::kLamportMetaTag);
    const auto got = ev::strip_lamport(meta);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, clock);
    EXPECT_EQ(meta, (std::vector<int>{7, 1, 2}));
  }
}

TEST(LamportTest, StripIsFailSafeOnUnstampedMeta) {
  std::vector<int> meta{1, 2, 3};
  EXPECT_FALSE(ev::strip_lamport(meta).has_value());
  EXPECT_EQ(meta, (std::vector<int>{1, 2, 3}));
  std::vector<int> short_meta{ev::kLamportMetaTag};
  EXPECT_FALSE(ev::strip_lamport(short_meta).has_value());
  // A tag with an out-of-range limb in front is not a stamp.
  std::vector<int> bad{0, -1, 5, ev::kLamportMetaTag};
  EXPECT_FALSE(ev::strip_lamport(bad).has_value());
  EXPECT_EQ(bad.size(), 4u);
}

TEST(LamportTest, TickAndMergeAreMonotone) {
  const std::uint64_t t0 = ev::lamport_now();
  const std::uint64_t t1 = ev::lamport_tick();
  EXPECT_GT(t1, t0);
  const std::uint64_t jumped = ev::lamport_merge(t1 + 1000);
  EXPECT_GT(jumped, t1 + 1000);
  // Merging an old stamp still moves forward.
  const std::uint64_t after = ev::lamport_merge(1);
  EXPECT_GT(after, jumped);
}

TEST(EventRecorderTest, EmitRecordsNodeAndInstance) {
  ev::set_node(37);
  const std::uint64_t before = ev::emitted_total();
  ev::emit(ev::Type::kNote, 123, 456, 789);
  ev::set_node(-1);
  EXPECT_EQ(ev::emitted_total(), before + 1);
  bool found = false;
  for (const auto& e : ev::snapshot()) {
    if (e.type == ev::Type::kNote && e.node == 37 && e.instance == 123 &&
        e.a == 456 && e.b == 789) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EventRecorderTest, DisabledEmitRecordsNothing) {
  ev::set_enabled(false);
  const std::uint64_t before = ev::emitted_total();
  ev::emit(ev::Type::kNote, 1, 2, 3);
  ev::set_enabled(true);
  EXPECT_EQ(ev::emitted_total(), before);
}

TEST(EventRecorderTest, ExitedThreadsHandTheirRingsOn) {
  // A fresh executor per property check starts new threads on every call;
  // each exited thread's ring must go to the next one instead of a new
  // ring being registered per thread.
  constexpr int kRounds = 64;
  constexpr int kThreads = 4;
  constexpr std::int64_t kMarker = 0x52494E47;  // "RING"
  const std::size_t rings_before = ev::registered_rings();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [round, t] { ev::emit(ev::Type::kNote, round, kMarker, t); });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_LE(ev::registered_rings(), rings_before + kThreads);
  // The cursor carries on under each new owner, so the first round's
  // events are still readable.
  std::vector<bool> seen(kThreads, false);
  for (const auto& e : ev::snapshot()) {
    if (e.type == ev::Type::kNote && e.instance == 0 && e.a == kMarker &&
        e.b >= 0 && e.b < kThreads) {
      seen[static_cast<std::size_t>(e.b)] = true;
    }
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(seen[t]) << "thread " << t;
}

TEST(EventRecorderTest, ExportTraceWritesAParseableFixpoint) {
  ev::emit(ev::Type::kNote, -1, 11, 22);
  const std::string path = ::testing::TempDir() + "/events_export.jsonl";
  ASSERT_EQ(ev::export_trace(path), path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_EQ(ev::dump_jsonl(ev::parse_jsonl(text)), text);
  std::filesystem::remove(path);
}

/// Captures what a sim process sends, exactly as the engine would see it.
struct CapturingOutbox final : net::Outbox {
  std::vector<std::pair<net::ProcessId, net::Message>> sent;
  void send(net::ProcessId to, net::Message m) override {
    sent.emplace_back(to, std::move(m));
  }
};

TEST(SimTransportTest, NeverStampsMeta) {
  // The sim transport must pass messages through byte-identically -- a
  // Lamport stamp here would change ScheduleLog digests and break every
  // recorded repro. Only the TCP send path stamps.
  CapturingOutbox out;
  net::SimTransport st(out, 0, 4);
  net::Message m("rbc", {5, 6, 7}, Vec{1.0, 2.0});
  st.send(2, m);
  ASSERT_EQ(out.sent.size(), 1u);
  EXPECT_EQ(out.sent[0].first, 2u);
  EXPECT_EQ(out.sent[0].second.meta, (std::vector<int>{5, 6, 7}));
  EXPECT_FALSE(ev::strip_lamport(out.sent[0].second.meta).has_value());
}

class EventsJobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    save("RBVC_JOBS", jobs_);
    save("RBVC_REPLAY", replay_);
    save("RBVC_FUZZ_EPISODES", episodes_);
    save("RBVC_TRACE_OUT", trace_out_);
    ::unsetenv("RBVC_REPLAY");
    ::unsetenv("RBVC_FUZZ_EPISODES");
  }
  void TearDown() override {
    restore("RBVC_JOBS", jobs_);
    restore("RBVC_REPLAY", replay_);
    restore("RBVC_FUZZ_EPISODES", episodes_);
    restore("RBVC_TRACE_OUT", trace_out_);
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  static void save(const char* name, std::pair<bool, std::string>& slot) {
    const char* v = std::getenv(name);
    slot = {v != nullptr, v ? v : ""};
  }
  static void restore(const char* name,
                      const std::pair<bool, std::string>& slot) {
    if (slot.first) {
      ::setenv(name, slot.second.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  std::pair<bool, std::string> jobs_;
  std::pair<bool, std::string> replay_;
  std::pair<bool, std::string> episodes_;
  std::pair<bool, std::string> trace_out_;
};

/// The parallel-determinism planted property (quorum below n - f makes
/// divergent views surface as disagreement on several episodes).
harness::AsyncProperty planted_property(const std::string& repro_dir) {
  harness::AsyncProperty prop;
  prop.name = "events_planted";
  prop.generate = [](Rng& rng) {
    workload::AsyncExperiment e;
    e.prm.n = 4;
    e.prm.f = 1;
    e.prm.rounds = 2;
    e.prm.use_witness = false;
    e.prm.quorum_override = 2;
    e.d = 2;
    e.honest_inputs = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
    e.scheduler = workload::SchedulerKind::kRandom;
    e.seed = rng.next_u64();
    return e;
  };
  prop.oracle = harness::decide_agree_valid_oracle(0.5, 1.0);
  prop.episodes = 24;
  prop.shrink_budget = 120;
  prop.repro_dir = repro_dir;
  return prop;
}

TEST_F(EventsJobsTest, ReproStaysByteIdenticalWithTraceSinkArmed) {
  // The flight recorder is always on, and RBVC_TRACE_OUT additionally arms
  // the at-exit sink; neither may perturb detection order, shrinking, or
  // the repro bytes across job counts.
  const std::string dir1 = ::testing::TempDir() + "/ev_jobs1";
  const std::string dir8 = ::testing::TempDir() + "/ev_jobs8";
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir8);
  const std::string trace_path = ::testing::TempDir() + "/ev_trace.jsonl";
  ::setenv("RBVC_TRACE_OUT", trace_path.c_str(), 1);

  ::setenv("RBVC_JOBS", "1", 1);
  const auto serial =
      harness::check_property<harness::AsyncRunner>(planted_property(dir1));
  ASSERT_FALSE(serial.passed) << harness::describe(serial);
  ASSERT_FALSE(serial.repro_path.empty());

  ::setenv("RBVC_JOBS", "8", 1);
  const auto parallel =
      harness::check_property<harness::AsyncRunner>(planted_property(dir8));
  ASSERT_FALSE(parallel.passed) << harness::describe(parallel);

  EXPECT_EQ(parallel.failing_episode, serial.failing_episode);
  EXPECT_EQ(parallel.failure, serial.failure);
  EXPECT_EQ(slurp(parallel.repro_path), slurp(serial.repro_path));

  // The harness actually recorded episode markers along the way.
  std::size_t episode_events = 0;
  for (const auto& e : ev::snapshot()) {
    if (e.type == ev::Type::kEpisodeStart) ++episode_events;
  }
  EXPECT_GT(episode_events, 0u);
}

}  // namespace
}  // namespace rbvc
