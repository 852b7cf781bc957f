// Scheduler fairness: the liveness results of the paper's asynchronous
// model (and the comment contract in sim/async_engine.h) require that no
// pending message is starved forever. The adversarial LaggardScheduler is
// the risky one: it delays laggard-touching messages but must still leak
// them out with its configured probability.
#include <gtest/gtest.h>

#include "sim/async_engine.h"

namespace rbvc::sim {
namespace {

Message make_msg(ProcessId from, ProcessId to, const char* kind) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = kind;
  return m;
}

// What the engine's outbox does on a send: ask the scheduler for the
// message's preferred bit, then append it to the pool.
void send(PendingPool& pending, const Scheduler& sched, Message m) {
  const bool preferred = sched.prefers(m);
  pending.push(std::move(m), preferred);
}

// A lagged message competing against a constantly replenished pool of fast
// messages must still be delivered within a bounded number of picks. With
// the default 2% leak the expected wait is ~200 picks; the bound leaves
// orders of magnitude of slack and the seeds make the check deterministic.
TEST(SchedulerFairnessTest, LaggardEventuallyDeliversLaggedMessages) {
  constexpr std::size_t kBound = 50'000;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    LaggardScheduler sched(seed, {0});
    PendingPool pending;
    send(pending, sched, make_msg(0, 1, "lag"));  // touches laggard process 0
    for (ProcessId i = 1; i <= 3; ++i) {
      send(pending, sched, make_msg(i, i + 1, "fast"));
    }
    std::size_t waited = 0;
    bool delivered = false;
    while (waited < kBound) {
      const std::size_t idx = sched.pick(pending);
      ASSERT_LT(idx, pending.size());
      ++waited;
      if (pending[idx].kind == "lag") {
        delivered = true;
        break;
      }
      // The adversary keeps the fast lane saturated: every delivered fast
      // message is immediately replaced by a fresh one.
      (void)pending.take(idx);
      send(pending, sched, make_msg(1 + waited % 3, 2, "fast"));
    }
    EXPECT_TRUE(delivered)
        << "seed " << seed << ": lagged message starved for " << kBound
        << " picks";
  }
}

TEST(SchedulerFairnessTest, LaggardDeliversImmediatelyWhenOnlyLaggedPending) {
  LaggardScheduler sched(3, {0, 2});
  PendingPool pending;
  send(pending, sched, make_msg(0, 2, "lag"));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sched.pick(pending), 0u);
  }
}

TEST(SchedulerFairnessTest, RandomSchedulerCoversTheWholePool) {
  RandomScheduler sched(42);
  PendingPool pending;
  for (ProcessId i = 0; i < 8; ++i) send(pending, sched, make_msg(i, 0, "m"));
  std::vector<bool> hit(pending.size(), false);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t idx = sched.pick(pending);
    ASSERT_LT(idx, pending.size());
    hit[idx] = true;
  }
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_TRUE(hit[i]) << "index " << i << " never picked";
  }
}

}  // namespace
}  // namespace rbvc::sim
