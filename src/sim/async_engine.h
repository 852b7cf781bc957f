// Asynchronous event-driven engine (the paper's asynchronous system model):
// messages are delivered one at a time, in an order chosen by an adversarial
// but fair scheduler. Channels are reliable -- every sent message is
// eventually delivered -- which is exactly what Bracha-style reliable
// broadcast assumes.
#pragma once

#include <memory>
#include <vector>

#include "sim/message.h"
#include "sim/pending_pool.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace rbvc::sim {

class AsyncProcess {
 public:
  virtual ~AsyncProcess() = default;
  virtual void init(Outbox& out) = 0;
  virtual void on_message(const Message& m, Outbox& out) = 0;
  virtual bool decided() const = 0;
};

class ScheduleLog;

/// Chooses which pending message to deliver next. Implementations must be
/// fair (never starve a message forever) for liveness results to hold;
/// tests/scheduler_fairness_test.cpp guards this for the built-in
/// schedulers.
///
/// pick() returns an index into the pending pool, and index i is the i-th
/// oldest pending message. Between two picks the pool changes only by
/// taking the picked message (every later index drops by one) and appending
/// the recipient's sends in send order. Schedule logs store these indices,
/// replays re-apply them, and mc's sleep-set inheritance maps a parent
/// pick's options onto its child's by this rule (mc/explorer.cpp).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Index of the message to deliver next; < pending.size().
  virtual std::size_t pick(const PendingPool& pending) = 0;
  /// Asked once per send, after the channel stamps `from` and `to` and
  /// before the message enters the pool: the answer is its preferred bit
  /// (PendingPool::preferred, index_of_preferred).
  virtual bool prefers(const Message&) const { return false; }
};

/// Uniformly random (seeded) delivery order: fair with probability 1.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  std::size_t pick(const PendingPool& pending) override;

 private:
  Rng rng_;
};

/// Adversarial "laggard" schedule: messages to or from the designated slow
/// processes are delivered only when nothing else is pending (or with small
/// probability), modelling f slow-but-correct processes that asynchronous
/// algorithms must not wait for. Every other message is preferred.
class LaggardScheduler final : public Scheduler {
 public:
  LaggardScheduler(std::uint64_t seed, const std::vector<ProcessId>& laggards,
                   double leak_probability = 0.02);
  std::size_t pick(const PendingPool& pending) override;
  bool prefers(const Message& m) const override { return !lagged(m); }

 private:
  bool lagged(const Message& m) const;
  Rng rng_;
  std::vector<char> laggard_;  // laggard_[p] != 0 iff process p lags
  double leak_;
};

struct AsyncRunStats {
  std::size_t deliveries = 0;
  std::size_t sends = 0;
  bool all_decided = false;
};

class AsyncEngine {
 public:
  explicit AsyncEngine(std::unique_ptr<Scheduler> sched)
      : sched_(std::move(sched)) {}

  ProcessId add(std::unique_ptr<AsyncProcess> p);
  std::size_t size() const { return procs_.size(); }
  AsyncProcess& process(ProcessId id) { return *procs_.at(id); }
  Trace& trace() { return trace_; }

  /// When set, every scheduler decision is appended to `log` as it is made
  /// (see sim/schedule_log.h); replaying the log reproduces the run.
  void set_schedule_log(ScheduleLog* log) { slog_ = log; }

  /// Delivers messages until every process in `wait_for` has decided, the
  /// pending pool drains, or `max_events` deliveries happen.
  AsyncRunStats run(const std::vector<ProcessId>& wait_for,
                    std::size_t max_events);

 private:
  std::unique_ptr<Scheduler> sched_;
  std::vector<std::unique_ptr<AsyncProcess>> procs_;
  Trace trace_;
  ScheduleLog* slog_ = nullptr;
};

}  // namespace rbvc::sim
