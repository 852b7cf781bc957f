#include "sim/async_engine.h"

#include <map>

#include "obs/metrics.h"
#include "sim/schedule_log.h"

namespace rbvc::sim {

std::size_t RandomScheduler::pick(const PendingPool& pending) {
  return rng_.below(pending.size());
}

LaggardScheduler::LaggardScheduler(std::uint64_t seed,
                                   const std::vector<ProcessId>& laggards,
                                   double leak_probability)
    : rng_(seed), leak_(leak_probability) {
  for (ProcessId p : laggards) {
    if (p >= laggard_.size()) laggard_.resize(p + 1, 0);
    laggard_[p] = 1;
  }
}

bool LaggardScheduler::lagged(const Message& m) const {
  auto lags = [this](ProcessId p) {
    return p < laggard_.size() && laggard_[p] != 0;
  };
  return lags(m.from) || lags(m.to);
}

std::size_t LaggardScheduler::pick(const PendingPool& pending) {
  // The leak coin is drawn on every pick, then one index -- a random
  // fast-path message when one is pending. Recorded schedules depend on
  // this draw order.
  if (rng_.next_double() >= leak_ && pending.preferred() > 0) {
    return pending.index_of_preferred(rng_.below(pending.preferred()));
  }
  return rng_.below(pending.size());
}

namespace {

class PoolOutbox final : public Outbox {
 public:
  PoolOutbox(ProcessId self, std::size_t n, PendingPool& pool,
             const Scheduler& sched, Trace& trace, std::size_t time,
             std::size_t& counter,
             std::map<std::string, std::uint64_t>& kind_counts)
      : self_(self),
        n_(n),
        pool_(pool),
        sched_(sched),
        trace_(trace),
        time_(time),
        counter_(counter),
        kind_counts_(kind_counts) {}

  void send(ProcessId to, Message m) override {
    RBVC_REQUIRE(to < n_, "send: unknown recipient");
    m.from = self_;
    m.to = to;
    if (trace_.enabled()) {
      trace_.record(EventType::kSend, time_, self_, describe(m));
    }
    ++kind_counts_[m.kind];
    const bool preferred = sched_.prefers(m);
    pool_.push(std::move(m), preferred);
    ++counter_;
  }

 private:
  ProcessId self_;
  std::size_t n_;
  PendingPool& pool_;
  const Scheduler& sched_;
  Trace& trace_;
  std::size_t time_;
  std::size_t& counter_;
  std::map<std::string, std::uint64_t>& kind_counts_;
};

}  // namespace

ProcessId AsyncEngine::add(std::unique_ptr<AsyncProcess> p) {
  procs_.push_back(std::move(p));
  return procs_.size() - 1;
}

AsyncRunStats AsyncEngine::run(const std::vector<ProcessId>& wait_for,
                               std::size_t max_events) {
  const std::size_t n = procs_.size();
  AsyncRunStats stats;
  PendingPool pending;
  std::map<std::string, std::uint64_t> kind_counts;
  obs::Histogram& queue_depth = obs::histogram(obs::m::sim_async_queue_depth);
  // Every episode thread shares queue_depth, so depths are tallied here and
  // published once per run. Depths are integers: the batched sum is exact
  // and equals what per-pick observe() calls would accumulate.
  std::vector<std::uint64_t> depth_counts(queue_depth.bounds().size() + 1, 0);
  std::uint64_t depth_sum = 0;

  for (ProcessId id = 0; id < n; ++id) {
    PoolOutbox out(id, n, pending, *sched_, trace_, 0, stats.sends,
                   kind_counts);
    procs_[id]->init(out);
  }

  auto all_done = [&]() {
    for (ProcessId id : wait_for) {
      if (!procs_.at(id)->decided()) return false;
    }
    return true;
  };

  while (stats.deliveries < max_events && !pending.empty() && !all_done()) {
    ++depth_counts[queue_depth.bucket_of(static_cast<double>(pending.size()))];
    depth_sum += pending.size();
    const std::size_t idx = sched_->pick(pending);
    RBVC_REQUIRE(idx < pending.size(), "scheduler picked out of range");
    if (slog_) slog_->add_pick(idx);
    const Message m = pending.take(idx);
    ++stats.deliveries;
    if (trace_.enabled()) {
      trace_.record(EventType::kDeliver, stats.deliveries, m.to, describe(m));
    }
    PoolOutbox out(m.to, n, pending, *sched_, trace_, stats.deliveries,
                   stats.sends, kind_counts);
    procs_[m.to]->on_message(m, out);
  }
  stats.all_decided = all_done();

  queue_depth.add(depth_counts, static_cast<double>(depth_sum));
  obs::counter(obs::m::sim_async_runs).inc();
  obs::counter(obs::m::sim_async_messages_sent).inc(stats.sends);
  obs::counter(obs::m::sim_async_messages_delivered).inc(stats.deliveries);
  obs::counter(obs::m::sim_async_messages_undelivered).inc(pending.size());
  obs::counter(obs::m::sim_async_scheduler_picks).inc(stats.deliveries);
  for (const auto& [kind, count] : kind_counts) {
    obs::counter(obs::m::sim_async_sent, kind).inc(count);
  }
  return stats;
}

}  // namespace rbvc::sim
