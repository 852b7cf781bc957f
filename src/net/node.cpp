#include "net/node.h"

#include <chrono>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"

namespace rbvc::net {

namespace {

/// Cumulative LP-kernel time in ns, read before/after a protocol callback
/// to attribute its LP share (kProtoStep.b). Process-global, so in-process
/// multi-node fleets overlap -- treat the per-step delta as approximate
/// there; rbvc-node processes are single-consumer and exact.
std::uint64_t lp_total_ns() {
  const obs::Histogram* h = obs::global().find_histogram("lp.seconds");
  return h == nullptr ? 0
                      : static_cast<std::uint64_t>(h->sum() * 1e9);
}

}  // namespace

ConsensusNode::ConsensusNode(Params params, Transport& t)
    : params_(std::move(params)), t_(t) {
  RBVC_REQUIRE(params_.prm.n > 0, "ConsensusNode: params.prm.n must be set");
  RBVC_REQUIRE(t_.self() < params_.prm.n,
               "ConsensusNode: transport id is not a node id");
}

bool ConsensusNode::step(int timeout_ms) {
  if (crashed_) return false;
  auto m = t_.receive(timeout_ms);
  if (!m) return false;
  handle(std::move(*m));
  return true;
}

void ConsensusNode::serve(const std::atomic<bool>& stop, int poll_ms) {
  while (!stop.load(std::memory_order_acquire) && !crashed_ && !t_.closed()) {
    step(poll_ms);
  }
}

void ConsensusNode::handle(Message m) {
  if (m.kind == "propose") {
    // Ids below n are nodes, and only a client chooses a node's input.
    if (m.from < params_.prm.n || m.meta.size() != 1 || m.payload.empty()) {
      ++stats_.dropped;
      live_.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    start_instance(static_cast<int>(m.meta[0]), m);
    return;
  }
  if (m.kind == "decided" || m.meta.empty()) {
    ++stats_.dropped;  // not addressed to a node / missing instance tag
    live_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int instance = static_cast<int>(m.meta.front());
  m.meta.erase(m.meta.begin());
  deliver(instance, m);
}

void ConsensusNode::start_instance(int instance, const Message& propose) {
  if (instance < gc_floor_) {
    ++stats_.dropped;
    live_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Instance& inst = instances_[instance];
  inst.client = propose.from;
  if (inst.proc) return;  // duplicate propose
  ++stats_.proposed;
  live_.proposed.fetch_add(1, std::memory_order_relaxed);
  live_.live_instances.store(static_cast<std::int64_t>(instances_.size()),
                             std::memory_order_relaxed);
  inst.start_ns = obs::events::now_ns();
  obs::events::emit(obs::events::Type::kInstanceStart, instance,
                    static_cast<std::int64_t>(propose.from));
  inst.proc = std::make_unique<consensus::AsyncAveragingProcess>(
      params_.prm, t_.self(), propose.payload);
  InstanceOutbox out(t_, instance);
  const std::uint64_t lp0 = lp_total_ns();
  const std::uint64_t t0 = obs::events::now_ns();
  inst.proc->init(out);
  // Replay peers' protocol traffic that outran our propose.
  std::vector<Message> backlog;
  backlog.swap(inst.backlog);
  for (auto& b : backlog) inst.proc->on_message(b, out);
  obs::events::emit(obs::events::Type::kProtoStep, instance,
                    static_cast<std::int64_t>(obs::events::now_ns() - t0),
                    static_cast<std::int64_t>(lp_total_ns() - lp0));
  report_if_decided(instance);
}

void ConsensusNode::deliver(int instance, const Message& m) {
  if (instance < gc_floor_) {
    ++stats_.dropped;  // straggler for an already-retired instance
    live_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Instance& inst = instances_[instance];
  if (!inst.proc) {
    inst.backlog.push_back(m);
    live_.backlogged.fetch_add(1, std::memory_order_relaxed);
    obs::events::emit(obs::events::Type::kBacklog, instance,
                      static_cast<std::int64_t>(inst.backlog.size()));
    return;
  }
  if (inst.proc->decided()) return;
  InstanceOutbox out(t_, instance);
  const std::uint64_t lp0 = lp_total_ns();
  const std::uint64_t t0 = obs::events::now_ns();
  inst.proc->on_message(m, out);
  obs::events::emit(obs::events::Type::kProtoStep, instance,
                    static_cast<std::int64_t>(obs::events::now_ns() - t0),
                    static_cast<std::int64_t>(lp_total_ns() - lp0));
  report_if_decided(instance);
}

void ConsensusNode::report_if_decided(int instance) {
  Instance& inst = instances_.at(instance);
  if (!inst.proc->decided() || inst.reported) return;
  inst.reported = true;
  const bool ok = !inst.proc->failed();
  if (ok) {
    ++stats_.decided;
    live_.decided.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++stats_.failed;
    live_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  obs::global().counter("net.instances_decided").inc();
  const std::uint64_t now = obs::events::now_ns();
  const std::int64_t decide_ns =
      static_cast<std::int64_t>(now > inst.start_ns ? now - inst.start_ns : 0);
  obs::events::emit(obs::events::Type::kInstanceDecided, instance, ok ? 1 : 0,
                    decide_ns);
  live_.last_decided.store(instance, std::memory_order_relaxed);
  live_.last_decide_ns.store(decide_ns, std::memory_order_relaxed);
  Message reply("decided", {instance, ok ? 1 : 0},
                ok ? inst.proc->decision() : Vec{});
  t_.send(inst.client, std::move(reply));
  if (params_.crash_after_decided != 0 &&
      stats_.decided + stats_.failed >= params_.crash_after_decided) {
    crashed_ = true;
    live_.crashed.store(true, std::memory_order_relaxed);
  }
  gc();
}

void ConsensusNode::gc() {
  if (params_.retain_instances == 0) return;
  bool retired = false;
  while (instances_.size() > params_.retain_instances &&
         instances_.begin()->second.reported) {
    gc_floor_ = instances_.begin()->first + 1;
    instances_.erase(instances_.begin());
    retired = true;
  }
  if (retired) {
    live_.gc_floor.store(gc_floor_, std::memory_order_relaxed);
    live_.live_instances.store(static_cast<std::int64_t>(instances_.size()),
                               std::memory_order_relaxed);
    obs::events::emit(obs::events::Type::kGc, gc_floor_,
                      static_cast<std::int64_t>(instances_.size()));
  }
}

std::string ConsensusNode::status_json() const {
  // Alphabetical keys and integer values only, mirroring the metrics
  // registry's stable-dump convention so scripted consumers (net_smoke.sh,
  // rbvc-client --status) can string-match.
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  auto i = [](std::int64_t v) { return std::to_string(v); };
  const LiveStatus& s = live_;
  std::string out = "{";
  out += "\"backlogged\":" + u(s.backlogged.load(std::memory_order_relaxed));
  out += ",\"crashed\":";
  out += s.crashed.load(std::memory_order_relaxed) ? "1" : "0";
  out += ",\"decided\":" + u(s.decided.load(std::memory_order_relaxed));
  out += ",\"dropped\":" + u(s.dropped.load(std::memory_order_relaxed));
  out += ",\"failed\":" + u(s.failed.load(std::memory_order_relaxed));
  out += ",\"gc_floor\":" + i(s.gc_floor.load(std::memory_order_relaxed));
  out += ",\"last_decide_ns\":" +
         i(s.last_decide_ns.load(std::memory_order_relaxed));
  out += ",\"last_decided\":" +
         i(s.last_decided.load(std::memory_order_relaxed));
  out += ",\"live_instances\":" +
         i(s.live_instances.load(std::memory_order_relaxed));
  out += ",\"proposed\":" + u(s.proposed.load(std::memory_order_relaxed));
  out += "}";
  return out;
}

ClusterClient::ClusterClient(Transport& t, std::size_t n) : t_(t), n_(n) {
  RBVC_REQUIRE(n_ > 0 && n_ < t_.size(),
               "ClusterClient: cluster must have nodes plus a client slot");
  RBVC_REQUIRE(t_.self() >= n_, "ClusterClient: client id collides with a node");
}

void ClusterClient::propose(int instance, const std::vector<Vec>& inputs) {
  RBVC_REQUIRE(inputs.size() == n_,
               "ClusterClient::propose: one input per node required");
  for (ProcessId i = 0; i < n_; ++i) {
    t_.send(i, Message("propose", {instance}, inputs[i]));
  }
}

std::optional<DecisionEvent> ClusterClient::next_decision(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const int left =
        timeout_ms <= 0
            ? 0
            : static_cast<int>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count());
    auto m = t_.receive(left > 0 ? left : 0);
    if (!m) return std::nullopt;
    if (m->kind == "decided" && m->meta.size() == 2) {
      DecisionEvent ev;
      ev.node = m->from;
      ev.instance = static_cast<int>(m->meta[0]);
      ev.ok = m->meta[1] != 0;
      ev.value = std::move(m->payload);
      return ev;
    }
    if (now >= deadline) return std::nullopt;
  }
}

}  // namespace rbvc::net
