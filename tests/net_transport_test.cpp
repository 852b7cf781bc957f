// Transport boundary over in-process implementations: Mailbox semantics,
// LocalBus delivery, protocol objects (BrachaRbc, AsyncAveragingProcess)
// running unchanged over real threads, the SimTransport adapter's
// ScheduleLog byte-identity, and the sim-vs-LocalBus differential.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/async_averaging.h"
#include "net/local_bus.h"
#include "net/mailbox.h"
#include "net/sim_transport.h"
#include "protocols/bracha_rbc.h"
#include "sim/async_engine.h"
#include "sim/schedule_log.h"

namespace {

using rbvc::Vec;
using rbvc::consensus::AsyncAveragingProcess;
using rbvc::net::LocalBus;
using rbvc::net::Mailbox;
using rbvc::net::SimTransport;
using rbvc::net::Transport;
using rbvc::protocols::BrachaRbc;
using rbvc::sim::Message;
using rbvc::sim::ProcessId;

TEST(Mailbox, FifoPerProducerAndTimeout) {
  Mailbox mb;
  for (int i = 0; i < 5; ++i) mb.push(Message("m", {i}));
  for (int i = 0; i < 5; ++i) {
    auto m = mb.pop(0);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->meta.at(0), i);
  }
  EXPECT_FALSE(mb.pop(0).has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop(30).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
}

TEST(Mailbox, BlockedPopWokenByPush) {
  Mailbox mb;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.push(Message("late"));
  });
  auto m = mb.pop(2000);
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, "late");
}

TEST(Mailbox, CloseUnblocksAndDrainsBacklog) {
  Mailbox mb;
  mb.push(Message("a"));
  mb.close();
  // Already-delivered messages remain poppable after close...
  auto m = mb.pop(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, "a");
  // ...then pop reports closed immediately instead of waiting.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop(5000).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

TEST(Mailbox, ManyProducersLoseNothing) {
  Mailbox mb;
  constexpr int kProducers = 8;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&mb, p] {
      for (int i = 0; i < kEach; ++i) mb.push(Message("m", {p, i}));
    });
  }
  std::vector<int> next_per_producer(kProducers, 0);
  for (int got = 0; got < kProducers * kEach; ++got) {
    auto m = mb.pop(5000);
    ASSERT_TRUE(m.has_value()) << "lost messages after " << got;
    // Per-producer FIFO: each producer's sequence numbers arrive in order.
    EXPECT_EQ(m->meta.at(1), next_per_producer.at(m->meta.at(0))++);
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mb.pop(0).has_value());
}

TEST(Mailbox, DepthNeverExceedsPushesIssued) {
  // depth() is read after every pop while producers race the consumer. A
  // push that published its node before counting it lets the consumer's
  // decrement land first, and depth() wraps to 2^64-1.
  Mailbox mb;
  constexpr int kProducers = 6;
  constexpr int kEach = 4000;
  std::atomic<std::size_t> issued{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&mb, &issued, p] {
      for (int i = 0; i < kEach; ++i) {
        issued.fetch_add(1);
        mb.push(Message("m", {p, i}));
      }
    });
  }
  std::size_t worst = 0;
  bool bounded = true;
  for (int got = 0; got < kProducers * kEach; ++got) {
    auto m = mb.pop(5000);
    ASSERT_TRUE(m.has_value()) << "lost messages after " << got;
    const std::size_t depth = mb.depth();
    if (depth > issued.load()) {
      bounded = false;
      worst = std::max(worst, depth);
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(bounded) << "depth() read " << worst << " after a pop";
  EXPECT_EQ(mb.depth(), 0u);
}

TEST(LocalBusTest, RoutesAndStampsSender) {
  LocalBus bus(3);
  bus.endpoint(0).send(2, Message("hi", {7}));
  bus.endpoint(1).send(2, Message("yo"));
  auto a = bus.endpoint(2).receive(1000);
  auto b = bus.endpoint(2).receive(1000);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->to, 2u);
  EXPECT_EQ(b->to, 2u);
  // Self-send loops back like any other message.
  bus.endpoint(2).send(2, Message("self"));
  auto c = bus.endpoint(2).receive(1000);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->from, 2u);
  EXPECT_EQ(c->kind, "self");
}

// The same BrachaRbc component the sim engines drive, over LocalBus
// threads: every endpoint delivers the source's value exactly once.
TEST(LocalBusTest, BrachaRbcDeliversOverThreads) {
  constexpr std::size_t kN = 4, kF = 1;
  LocalBus bus(kN);
  const Vec value{1.5, -2.0};
  std::vector<Vec> delivered(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      Transport& t = bus.endpoint(id);
      BrachaRbc rbc(kN, kF, id);
      if (id == 0) rbc.broadcast(0, value, t);
      while (true) {
        auto m = t.receive(5000);
        ASSERT_TRUE(m.has_value()) << "endpoint " << id << " starved";
        auto dels = rbc.on_message(*m, t);
        if (!dels.empty()) {
          delivered[id] = dels.front().value;
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) EXPECT_EQ(delivered[id], value);
}

// SimTransport passes sends through to the engine outbox unmodified, so a
// run whose processes send through the adapter records a byte-identical
// ScheduleLog to one that sends through the raw outbox.
namespace {
class AveragingOverTransport final : public rbvc::sim::AsyncProcess {
 public:
  AveragingOverTransport(AsyncAveragingProcess::Params prm, ProcessId self,
                         std::size_t n, Vec input)
      : inner_(prm, self, std::move(input)), self_(self), n_(n) {}
  void init(rbvc::sim::Outbox& out) override {
    SimTransport t(out, self_, n_);
    inner_.init(t);
  }
  void on_message(const Message& m, rbvc::sim::Outbox& out) override {
    SimTransport t(out, self_, n_);
    inner_.on_message(m, t);
  }
  bool decided() const override { return inner_.decided(); }
  const AsyncAveragingProcess& inner() const { return inner_; }

 private:
  AsyncAveragingProcess inner_;
  ProcessId self_;
  std::size_t n_;
};
}  // namespace

TEST(SimTransportTest, ScheduleLogByteIdenticalToRawOutbox) {
  constexpr std::size_t kN = 4, kF = 1;
  AsyncAveragingProcess::Params prm;
  prm.n = kN;
  prm.f = kF;
  prm.rounds = 2;
  const std::vector<Vec> inputs{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};

  auto run = [&](bool through_transport) {
    rbvc::sim::AsyncEngine eng(
        std::make_unique<rbvc::sim::RandomScheduler>(42));
    rbvc::sim::ScheduleLog log;
    eng.set_schedule_log(&log);
    std::vector<ProcessId> all;
    for (ProcessId id = 0; id < kN; ++id) {
      if (through_transport) {
        eng.add(std::make_unique<AveragingOverTransport>(prm, id, kN,
                                                         inputs[id]));
      } else {
        eng.add(std::make_unique<AsyncAveragingProcess>(prm, id, inputs[id]));
      }
      all.push_back(id);
    }
    const auto stats = eng.run(all, 200000);
    EXPECT_TRUE(stats.all_decided);
    return log.serialize();
  };

  EXPECT_EQ(run(true), run(false));
}

// Differential: with f = 0 every round uses all n verified values, so the
// decision is delivery-order independent -- the sim run and a free-running
// threaded LocalBus run must decide bit-identical vectors.
TEST(LocalBusTest, DifferentialAgainstSimWithZeroFaults) {
  constexpr std::size_t kN = 4;
  AsyncAveragingProcess::Params prm;
  prm.n = kN;
  prm.f = 0;
  prm.rounds = 3;
  // The relaxed delta* rules require f >= 1; the exact-Gamma baseline is
  // well-defined at f = 0 and equally delivery-order independent.
  prm.rule = AsyncAveragingProcess::Round0Rule::kExactGamma;
  const std::vector<Vec> inputs{
      {0.25, -1.0}, {2.0, 0.5}, {-0.75, 1.25}, {1.0, 1.0}};

  // Reference: deterministic sim episode.
  std::vector<Vec> sim_decisions(kN);
  {
    rbvc::sim::AsyncEngine eng(
        std::make_unique<rbvc::sim::RandomScheduler>(7));
    std::vector<ProcessId> all;
    for (ProcessId id = 0; id < kN; ++id) {
      eng.add(std::make_unique<AsyncAveragingProcess>(prm, id, inputs[id]));
      all.push_back(id);
    }
    ASSERT_TRUE(eng.run(all, 200000).all_decided);
    for (ProcessId id = 0; id < kN; ++id) {
      sim_decisions[id] =
          dynamic_cast<AsyncAveragingProcess&>(eng.process(id)).decision();
    }
  }

  // Same protocol over LocalBus threads, wall-clock delivery order.
  std::vector<Vec> bus_decisions(kN);
  {
    LocalBus bus(kN);
    std::vector<std::thread> threads;
    for (ProcessId id = 0; id < kN; ++id) {
      threads.emplace_back([&, id] {
        Transport& t = bus.endpoint(id);
        AsyncAveragingProcess p(prm, id, inputs[id]);
        p.init(t);
        while (!p.decided()) {
          auto m = t.receive(10000);
          ASSERT_TRUE(m.has_value()) << "endpoint " << id << " starved";
          p.on_message(*m, t);
        }
        ASSERT_FALSE(p.failed());
        bus_decisions[id] = p.decision();
      });
    }
    for (auto& t : threads) t.join();
  }

  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(bus_decisions[id], sim_decisions[id]) << "process " << id;
  }
}

}  // namespace
