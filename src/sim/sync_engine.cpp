#include "sim/sync_engine.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "sim/schedule_log.h"

namespace rbvc::sim {

namespace {

class CollectingOutbox final : public Outbox {
 public:
  CollectingOutbox(ProcessId self, std::size_t n,
                   std::vector<std::vector<Message>>& next, Trace& trace,
                   std::size_t round_no, std::size_t& counter,
                   std::map<std::string, std::uint64_t>& kind_counts)
      : self_(self),
        n_(n),
        next_(next),
        trace_(trace),
        round_(round_no),
        counter_(counter),
        kind_counts_(kind_counts) {}

  void send(ProcessId to, Message m) override {
    RBVC_REQUIRE(to < n_, "send: unknown recipient");
    m.from = self_;
    m.to = to;
    if (trace_.enabled()) {
      trace_.record(EventType::kSend, round_, self_, describe(m));
    }
    ++kind_counts_[m.kind];
    next_[to].push_back(std::move(m));
    ++counter_;
  }

 private:
  ProcessId self_;
  std::size_t n_;
  std::vector<std::vector<Message>>& next_;
  Trace& trace_;
  std::size_t round_;
  std::size_t& counter_;
  std::map<std::string, std::uint64_t>& kind_counts_;
};

}  // namespace

ProcessId SyncEngine::add(std::unique_ptr<SyncProcess> p) {
  procs_.push_back(std::move(p));
  return procs_.size() - 1;
}

SyncRunStats SyncEngine::run(std::size_t max_rounds) {
  const std::size_t n = procs_.size();
  SyncRunStats stats;
  std::vector<std::vector<Message>> inboxes(n);
  std::map<std::string, std::uint64_t> kind_counts;
  obs::Registry& reg = obs::global();
  obs::Histogram& round_messages =
      reg.histogram("sim.sync.round_messages", obs::count_buckets());

  for (std::size_t r = 0; r < max_rounds; ++r) {
    bool all = true;
    for (const auto& p : procs_) all = all && p->decided();
    if (all) {
      stats.all_decided = true;
      break;
    }
    const std::size_t sent_before = stats.messages;
    std::vector<std::vector<Message>> next(n);
    for (ProcessId id = 0; id < n; ++id) {
      // Deterministic in-round delivery order: sort by sender then content
      // so executions are reproducible regardless of send interleaving.
      std::stable_sort(inboxes[id].begin(), inboxes[id].end(),
                       [](const Message& a, const Message& b) {
                         if (a.from != b.from) return a.from < b.from;
                         return MessageContentLess{}(a, b);
                       });
      CollectingOutbox out(id, n, next, trace_, r, stats.messages,
                           kind_counts);
      procs_[id]->round(r, inboxes[id], out);
    }
    if (slog_) slog_->add_round(stats.messages - sent_before);
    round_messages.observe(static_cast<double>(stats.messages - sent_before));
    inboxes = std::move(next);
    stats.rounds = r + 1;
  }
  if (!stats.all_decided) {
    bool all = true;
    for (const auto& p : procs_) all = all && p->decided();
    stats.all_decided = all;
  }

  reg.counter("sim.sync.runs").inc();
  reg.counter("sim.sync.rounds").inc(stats.rounds);
  reg.counter("sim.sync.messages_sent").inc(stats.messages);
  for (const auto& [kind, count] : kind_counts) {
    reg.counter("sim.sync.sent." + obs::sanitize_label(kind)).inc(count);
  }
  return stats;
}

}  // namespace rbvc::sim
