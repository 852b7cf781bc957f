// Cluster workloads: the deployed defaults of rbvc-node and rbvc-client
// (n=4, f=1, R=4 averaging rounds, d=2, Relaxed-L2 round-0 rule, 8
// instances in flight) in one process, over TcpTransport::make_local_cluster
// (cluster-tcp) or LocalBus (cluster-bus). One client thread drives a
// closed loop; each node runs the same step() loop serve() runs. Inputs are
// uniform in [-1,1]^2, a function of (seed, instance id) only.
//
// cluster-bus is not a declared workload: LocalBus has no backpressure and
// the client resolves an instance at n-f decisions, so the slowest node's
// mailbox grows for as long as the cluster runs, at a rate set by how much
// CPU that node gets. Its peak RSS and p99 therefore follow the host's load
// (see workloads.json for the measured spreads). TCP bounds that backlog
// through its socket buffers.
//
// Traced runs wrap each node's endpoint in TimedTransport, which times
// receive()/send() inside every ConsensusNode::step and records them as
// children of the step span; step self time is what the node spends in
// RBC/witness bookkeeping, verify-by-recompute and delta*.
#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "consensus/verifier.h"
#include "net/local_bus.h"
#include "net/node.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using rbvc::Vec;
using rbvc::net::Message;
using rbvc::net::ProcessId;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kFaults = 1;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kDim = 2;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kQuorum = kNodes - kFaults;
constexpr std::size_t kWarmupInstances = 3 * kWindow;
constexpr int kSetups = 5;
constexpr int kPollMs = 20;  // ConsensusNode::serve's default
constexpr int kMeshTimeoutMs = 10000;
constexpr int kDecisionTimeoutMs = 10000;
constexpr std::size_t kCapturePerNode = 5000;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
// Untraced windows are reported as medians over this many equal slices;
// each slice's p99 needs >= 10 samples beyond it.
constexpr std::size_t kSlices = 5;
constexpr std::size_t kMinTailSamples = 1000;
// Thresholds of harness::decide_agree_valid_oracle(0.5, 1.0).
constexpr double kEpsilon = 0.5;
constexpr double kKappa = 1.0;
constexpr double kMaxValidityExcess = 1e-5;

std::int64_t request_of(const Message& m) {
  return m.meta.empty() ? -1 : m.meta.front();
}

std::vector<Vec> instance_inputs(std::uint64_t seed, std::size_t instance) {
  rbvc::Rng rng(rbvc::seed_sequence(seed, instance));
  std::vector<Vec> inputs(kNodes);
  for (Vec& v : inputs) v = rng.uniform_vec(kDim, -1.0, 1.0);
  return inputs;
}

/// What one node thread measured while tracing. Written only by that
/// thread; read after it is joined.
struct NodeTally {
  std::int64_t step_ns = 0;
  std::int64_t self_ns = 0;  // step minus its receive/send children
  std::int64_t recv_ns = 0;
  std::int64_t send_ns = 0;
  std::uint64_t busy_steps = 0;  // steps that delivered a frame
  std::uint64_t frames = 0;
  std::uint64_t sends = 0;
  std::vector<std::int64_t> first_step_ns;  // by instance id; 0 = not seen
  std::vector<Message> captured;            // for the codec replay
};

/// Timing decorator around a node's endpoint. Between begin_step() and
/// end_step() every receive()/send() is timed, counted and recorded as a
/// child span of the step; outside a step it only forwards.
class TimedTransport final : public rbvc::net::Transport {
 public:
  TimedTransport(rbvc::net::Transport& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  void send(ProcessId to, Message m) override {
    if (!in_step_) {
      inner_.send(to, std::move(m));
      return;
    }
    const std::int64_t request = request_of(m);
    if (tally_.captured.size() < kCapturePerNode) tally_.captured.push_back(m);
    const std::int64_t t0 = now_ns();
    inner_.send(to, std::move(m));
    const std::int64_t t1 = now_ns();
    tally_.send_ns += t1 - t0;
    child_ns_ += t1 - t0;
    ++tally_.sends;
    if (spans_) spans_->add(SpanKind::kNetSend, t0, t1, request, step_span_);
  }

  std::optional<Message> receive(int timeout_ms) override {
    if (!in_step_) return inner_.receive(timeout_ms);
    const std::int64_t t0 = now_ns();
    std::optional<Message> m = inner_.receive(timeout_ms);
    const std::int64_t t1 = now_ns();
    tally_.recv_ns += t1 - t0;
    child_ns_ += t1 - t0;
    std::int64_t request = -1;
    if (m) {
      ++tally_.frames;
      got_frame_ = true;
      request = request_of(*m);
      step_request_ = request;
    }
    if (spans_) spans_->add(SpanKind::kNetReceive, t0, t1, request, step_span_);
    return m;
  }

  ProcessId self() const override { return inner_.self(); }
  std::size_t size() const override { return inner_.size(); }
  bool closed() const override { return inner_.closed(); }

  void begin_step() {
    in_step_ = true;
    got_frame_ = false;
    child_ns_ = 0;
    step_request_ = -1;
    step_start_ = now_ns();
    step_span_ =
        spans_ ? spans_->open(SpanKind::kNodeStep, step_start_, -1, -1) : -1;
  }

  void end_step() {
    const std::int64_t t1 = now_ns();
    in_step_ = false;
    tally_.step_ns += t1 - step_start_;
    tally_.self_ns += (t1 - step_start_) - child_ns_;
    if (got_frame_) ++tally_.busy_steps;
    if (step_request_ >= 0) {
      auto& first = tally_.first_step_ns;
      const auto i = static_cast<std::size_t>(step_request_);
      if (first.size() <= i) first.resize(i + 1, 0);
      if (first[i] == 0) first[i] = step_start_;
    }
    if (spans_) spans_->close(step_span_, t1, step_request_);
  }

  const NodeTally& tally() const { return tally_; }

 private:
  rbvc::net::Transport& inner_;
  SpanLog* spans_;
  NodeTally tally_;
  bool in_step_ = false;
  bool got_frame_ = false;
  std::int64_t child_ns_ = 0;
  std::int64_t step_start_ = 0;
  std::int64_t step_request_ = -1;
  std::int32_t step_span_ = -1;
};

/// Four ConsensusNodes on their own threads plus the client endpoint.
class Cluster {
 public:
  Cluster(bool tcp, SpanLog* spans, bool timed) {
    std::vector<rbvc::net::Transport*> endpoints;
    if (tcp) {
      tcp_ = rbvc::net::TcpTransport::make_local_cluster(kNodes + 1);
      // Every endpoint, the client's included, links to all n others before
      // set-up ends: a propose sent before the client's links are up is
      // dropped (rbvc-client gates on wait_connected(n) for this reason).
      for (auto& t : tcp_) {
        if (t->wait_connected(kNodes, kMeshTimeoutMs) < kNodes) {
          throw std::runtime_error("cluster-tcp: mesh did not come up");
        }
        endpoints.push_back(t.get());
      }
    } else {
      bus_ = std::make_unique<rbvc::net::LocalBus>(kNodes + 1);
      for (ProcessId id = 0; id <= kNodes; ++id) {
        endpoints.push_back(&bus_->endpoint(id));
      }
    }
    rbvc::net::ConsensusNode::Params params;
    params.prm.n = kNodes;
    params.prm.f = kFaults;
    params.prm.rounds = kRounds;
    params.prm.rule =
        rbvc::consensus::AsyncAveragingProcess::Round0Rule::kRelaxedL2;
    for (ProcessId id = 0; id < kNodes; ++id) {
      rbvc::net::Transport* t = endpoints[id];
      if (timed) {
        timed_.push_back(std::make_unique<TimedTransport>(*t, spans));
        t = timed_.back().get();
      }
      nodes_.push_back(std::make_unique<rbvc::net::ConsensusNode>(params, *t));
    }
    client_ = std::make_unique<rbvc::net::ClusterClient>(*endpoints[kNodes],
                                                         kNodes);
    for (ProcessId id = 0; id < kNodes; ++id) {
      TimedTransport* tt = timed ? timed_[id].get() : nullptr;
      threads_.emplace_back(
          [this, id, tt] { node_loop(*nodes_[id], tt); });
    }
  }

  ~Cluster() {
    stop();
    if (bus_) bus_->close();
    for (auto& t : tcp_) t->close();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Stops and joins the node threads (idempotent).
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  rbvc::net::ClusterClient& client() { return *client_; }
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  const std::vector<std::unique_ptr<TimedTransport>>& timed() const {
    return timed_;
  }

  /// Sum over nodes of live().backlogged / live().dropped (atomic mirrors,
  /// readable while the nodes run).
  std::uint64_t backlogged() const {
    std::uint64_t s = 0;
    for (const auto& n : nodes_) s += n->live().backlogged.load();
    return s;
  }
  std::uint64_t dropped() const {
    std::uint64_t s = 0;
    for (const auto& n : nodes_) s += n->live().dropped.load();
    return s;
  }

 private:
  // ConsensusNode::serve's loop, with the step bracketed while tracing.
  void node_loop(rbvc::net::ConsensusNode& node, TimedTransport* timed) {
    while (!stop_.load(std::memory_order_acquire) && !node.crashed() &&
           !node.transport().closed()) {
      if (timed != nullptr && tracing_.load(std::memory_order_relaxed)) {
        timed->begin_step();
        node.step(kPollMs);
        timed->end_step();
      } else {
        node.step(kPollMs);
      }
    }
  }

  std::unique_ptr<rbvc::net::LocalBus> bus_;
  std::vector<std::unique_ptr<rbvc::net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TimedTransport>> timed_;
  std::vector<std::unique_ptr<rbvc::net::ConsensusNode>> nodes_;
  std::unique_ptr<rbvc::net::ClusterClient> client_;
  std::atomic<bool> tracing_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

using Point = std::array<double, kDim>;

/// Client-side state of one instance, kept flat so the benchmark's own
/// memory stays small next to the cluster's (inputs are regenerated from
/// (seed, id) for the gate).
struct InstanceRecord {
  std::int64_t propose_ns = 0;
  std::array<Point, kNodes> ok_values{};  // ok decisions, in report order
  std::array<bool, kNodes> reported{};
  std::uint8_t reports = 0;
  std::uint8_t oks = 0;
  bool malformed = false;  // an ok decision of the wrong dimension
  bool resolved = false;   // quorum reached, or every node reported
  bool decided = false;    // quorum of ok decisions reached
  std::int32_t span = -1;  // open client.instance span
};

/// One closed-loop phase on a cluster.
struct Phase {
  std::size_t first = 0;  // instance ids [first, end) were launched
  std::size_t end = 0;
  std::size_t decided = 0;  // all instances decided in the phase
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = 0;  // 0: the phase ran to a fixed count
  // Instances decided before the deadline: completion time and latency
  // (propose -> n-f ok decisions).
  std::vector<std::int64_t> done_ns;
  std::vector<double> latencies_ms;
  double window_s = 0.0;  // start to deadline (or to the last resolution)
  bool stalled = false;

  double rate() const {
    return ratio(static_cast<double>(latencies_ms.size()), window_s);
  }
};

/// Throughput and latency percentiles of each of `k` equal time slices of
/// a deadline-bound phase. Their medians are the reported figures: a stall
/// confined to one slice moves one value, not the result.
struct Slices {
  std::vector<double> rate, p50, p99;
  std::vector<std::size_t> samples;
};

Slices slice(const Phase& ph, std::size_t k) {
  const double len_ns =
      static_cast<double>(ph.deadline_ns - ph.start_ns) / static_cast<double>(k);
  std::vector<std::vector<double>> lat(k);
  for (std::size_t i = 0; i < ph.done_ns.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        static_cast<double>(ph.done_ns[i] - ph.start_ns) / len_ns);
    lat[std::min(s, k - 1)].push_back(ph.latencies_ms[i]);
  }
  Slices out;
  for (const std::vector<double>& l : lat) {
    out.rate.push_back(static_cast<double>(l.size()) / (len_ns * 1e-9));
    out.p50.push_back(percentile(l, 0.50));
    out.p99.push_back(percentile(l, 0.99));
    out.samples.push_back(l.size());
  }
  return out;
}

/// The client side: proposes instances, collects every node's report, and
/// checks each decided instance against the correctness gate.
class ClosedLoop {
 public:
  ClosedLoop(rbvc::net::ClusterClient& client, std::uint64_t seed)
      : client_(client), seed_(seed) {}

  /// Keeps kWindow instances in flight, launching until `count` instances
  /// or the deadline (0 = none), and returns once none is in flight.
  Phase run(std::size_t count, std::int64_t deadline_ns, SpanLog* spans) {
    Phase ph;
    ph.first = records_.size();
    ph.start_ns = now_ns();
    ph.deadline_ns = deadline_ns;
    std::size_t launched = 0;
    while (true) {
      while (flying_ < kWindow && launched < count &&
             (deadline_ns == 0 || now_ns() < deadline_ns)) {
        launch(spans);
        ++launched;
      }
      if (flying_ == 0) break;
      std::optional<rbvc::net::DecisionEvent> ev =
          client_.next_decision(kDecisionTimeoutMs);
      if (!ev) {
        ph.stalled = true;
        break;
      }
      on_decision(*ev, spans, ph);
    }
    ph.end = records_.size();
    ph.window_s = seconds_between(ph.start_ns,
                                  deadline_ns == 0 ? now_ns() : deadline_ns);
    return ph;
  }

  /// Pumps decision notifications until every launched instance has a
  /// report from every node. False when the cluster went quiet first.
  bool collect_late() {
    Phase unused;
    while (reports_ < kNodes * records_.size()) {
      std::optional<rbvc::net::DecisionEvent> ev =
          client_.next_decision(kDecisionTimeoutMs);
      if (!ev) return false;
      on_decision(*ev, nullptr, unused);
    }
    return true;
  }

  /// The correctness gate over every launched instance, late reports
  /// included: all n nodes decided ok, eps-agreement, and
  /// (delta,2)-relaxed validity at the oracle's input-dependent delta.
  void gate(const char* label, Report& rep, double& worst_linf,
            double& worst_excess) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const InstanceRecord& r = records_[i];
      ++rep.attempted;
      std::string why;
      if (!r.resolved) {
        why = "stalled";
      } else if (!r.decided) {
        why = "missed the quorum";
      } else if (r.malformed) {
        why = "a decision of the wrong dimension";
      } else if (r.oks < kNodes) {
        why = fmt("%u of %zu nodes decided ok", r.oks, kNodes);
      } else {
        std::vector<Vec> decisions;
        for (const Point& p : r.ok_values) decisions.emplace_back(p.begin(), p.end());
        const std::vector<Vec> inputs = instance_inputs(seed_, i);
        const rbvc::AgreementCheck agree = rbvc::check_agreement(decisions);
        worst_linf = std::max(worst_linf, agree.max_pairwise_linf);
        const double budget = std::max(
            1e-9, rbvc::input_dependent_delta(inputs, kKappa, 2.0));
        const double excess =
            rbvc::delta_p_validity_excess(decisions, inputs, budget, 2.0);
        worst_excess = std::max(worst_excess, excess);
        if (!rbvc::check_epsilon_agreement(decisions, kEpsilon)) {
          why = fmt("agreement: pairwise Linf %g > %g",
                    agree.max_pairwise_linf, kEpsilon);
        } else if (excess > kMaxValidityExcess) {
          why = fmt("validity: excess %g", excess);
        }
      }
      if (!why.empty()) rep.fail(fmt("%s instance %zu: %s", label, i, why.c_str()));
    }
  }

  std::int64_t propose_ns(std::size_t id) const { return records_[id].propose_ns; }

 private:
  void launch(SpanLog* spans) {
    const std::size_t id = records_.size();
    const std::vector<Vec> inputs = instance_inputs(seed_, id);
    InstanceRecord& r = records_.emplace_back();
    r.propose_ns = now_ns();
    const auto req = static_cast<std::int64_t>(id);
    if (spans) r.span = spans->open(SpanKind::kClientInstance, r.propose_ns, req, -1);
    client_.propose(static_cast<int>(id), inputs);
    if (spans) spans->add(SpanKind::kClientPropose, r.propose_ns, now_ns(), req, -1);
    ++flying_;
  }

  void on_decision(const rbvc::net::DecisionEvent& ev, SpanLog* spans,
                   Phase& ph) {
    if (ev.instance < 0 || static_cast<std::size_t>(ev.instance) >= records_.size() ||
        ev.node >= kNodes) {
      return;  // not one of ours; the gate catches the missing report
    }
    InstanceRecord& r = records_[static_cast<std::size_t>(ev.instance)];
    if (r.reported[ev.node]) return;
    r.reported[ev.node] = true;
    ++r.reports;
    ++reports_;
    if (ev.ok) {
      if (ev.value.size() == kDim) {
        std::copy(ev.value.begin(), ev.value.end(), r.ok_values[r.oks].begin());
      } else {
        r.malformed = true;
      }
      ++r.oks;
    }
    if (r.resolved) return;
    if (r.oks >= kQuorum) {
      const std::int64_t t = now_ns();
      r.resolved = r.decided = true;
      --flying_;
      ++ph.decided;
      if (ph.deadline_ns == 0 || t <= ph.deadline_ns) {
        ph.done_ns.push_back(t);
        ph.latencies_ms.push_back(static_cast<double>(t - r.propose_ns) * 1e-6);
      }
      if (spans) spans->close(r.span, t, ev.instance);
    } else if (r.reports == kNodes) {
      r.resolved = true;
      --flying_;
    }
  }

  rbvc::net::ClusterClient& client_;
  std::uint64_t seed_;
  std::vector<InstanceRecord> records_;
  std::size_t flying_ = 0;
  std::size_t reports_ = 0;
};

struct QueueDepth {
  double mean = 0.0;
  double readings = 0.0;
  double excluded = 0.0;
};

/// Mean of the net.queue_depth readings, estimated from the histogram's
/// buckets (each bucket at the midpoint of the integers it holds). The
/// histogram's running sum cannot be used: Mailbox::push publishes a node
/// before incrementing its depth counter, so a concurrent pop can make
/// receive() read the counter as 2^64-1. Such readings land in the overflow
/// bucket (no real depth comes near 1e6) and are excluded and counted.
QueueDepth queue_depth(const std::vector<double>& buckets) {
  const std::vector<double>& bounds = rbvc::obs::count_buckets();
  QueueDepth q;
  double weighted = 0.0;
  double in_range = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    q.readings += buckets[i];
    if (i >= bounds.size()) {
      q.excluded += buckets[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1] + 1.0;
    weighted += buckets[i] * 0.5 * (lo + bounds[i]);
    in_range += buckets[i];
  }
  q.mean = ratio(weighted, in_range);
  return q;
}

/// Replays the captured messages through the wire codec (frame, deframe,
/// decode). Checks the round trip once, then times whole passes for at
/// least 0.2 s; returns ns per frame.
double codec_ns_per_frame(const std::vector<Message>& msgs, Report& rep) {
  namespace wire = rbvc::net::wire;
  if (msgs.empty()) return 0.0;
  std::string stream;
  for (const Message& m : msgs) {
    stream += wire::frame_message(m);
    const std::optional<wire::Frame> fr = wire::try_unframe(stream);
    if (!fr || fr->type != wire::FrameType::kMessage ||
        !wire::decode_message(fr->body).same_content(m)) {
      rep.fail("wire codec: a captured message did not round-trip");
      return 0.0;
    }
  }
  std::size_t frames = 0;
  std::size_t checksum = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (const Message& m : msgs) {
      stream += wire::frame_message(m);
      const std::optional<wire::Frame> fr = wire::try_unframe(stream);
      checksum += wire::decode_message(fr->body).payload.size();
      ++frames;
    }
    elapsed = now_ns() - t0;
  } while (elapsed < 200'000'000);
  if (checksum == 0) rep.note("codec replay: captured messages carry no payload");
  return static_cast<double>(elapsed) / static_cast<double>(frames);
}

}  // namespace

Report run_cluster(const Options& opt, bool tcp) {
  const char* label = tcp ? "cluster-tcp" : "cluster-bus";
  Report rep;
  std::unique_ptr<SpanLog> spans =
      opt.trace ? std::make_unique<SpanLog>(kSpanCapacity) : nullptr;
  double worst_linf = 0.0;
  double worst_excess = 0.0;

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ClosedLoop> load;
  // Waits for every node's report, stops the nodes, gates all instances.
  const auto retire = [&] {
    if (!load) return;
    if (!load->collect_late()) rep.note("some node reports never arrived");
    cluster->stop();
  };
  const auto gate_and_drop = [&] {
    if (!load) return;
    load->gate(label, rep, worst_linf, worst_excess);
    load.reset();
    cluster.reset();
  };

  // Set-up: transports, mesh, node threads, client, and warm-up instances.
  // Repeated kSetups times; the last cluster serves the timed window.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    retire();
    gate_and_drop();
    const std::int64_t t0 = now_ns();
    cluster = std::make_unique<Cluster>(tcp, spans.get(), opt.trace);
    load = std::make_unique<ClosedLoop>(cluster->client(), opt.seed);
    const Phase warm = load->run(kWarmupInstances, 0, nullptr);
    setup_s.push_back(seconds_between(t0, now_ns()));
    if (warm.stalled) rep.note("warm-up stalled");
  }

  const auto window_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  if (!opt.trace) {
    const Phase w = load->run(std::numeric_limits<std::size_t>::max(),
                                now_ns() + window_ns, nullptr);
    retire();
    gate_and_drop();
    const Slices sl = slice(w, kSlices);
    rep.set("ops_per_s", median(sl.rate));
    rep.set("op_p50_ms", median(sl.p50));
    rep.set("op_tail_ms", median(sl.p99));
    rep.set("setup_s", median(setup_s));
    const std::size_t min_n = *std::min_element(sl.samples.begin(), sl.samples.end());
    rep.note(fmt("decided_per_s = %.1f 1/s  (median of %zu slices of %.2f s:%s; "
                 "%zu instances decided in the window, closed loop, %zu in flight)",
                 rep.values["ops_per_s"], kSlices, w.window_s / kSlices,
                 join(sl.rate, "%.1f").c_str(), w.latencies_ms.size(), kWindow));
    rep.note(fmt("decide_p50_ms = %.3f ms  (median over slices:%s)",
                 rep.values["op_p50_ms"], join(sl.p50, "%.3f").c_str()));
    rep.note(fmt("decide_p99_ms = %.3f ms  (median over slices:%s; smallest "
                 "slice n=%zu, %zu beyond its p99)",
                 rep.values["op_tail_ms"], join(sl.p99, "%.3f").c_str(), min_n,
                 min_n - (min_n * 99 + 99) / 100));
    if (min_n < kMinTailSamples) {
      rep.note(fmt("WARNING: a slice holds %zu samples < %zu; its p99 has < 10 "
                   "samples beyond it", min_n, kMinTailSamples));
    }
    rep.note(fmt("setup_s = %.4f s  (median of %d set-ups:%s)",
                 rep.values["setup_s"], kSetups, join(setup_s, "%.4f").c_str()));
  } else {
    // Untraced then traced half windows on the same cluster; the throughput
    // difference is the tracing overhead.
    const Phase w0 = load->run(std::numeric_limits<std::size_t>::max(),
                                 now_ns() + window_ns / 2, nullptr);
    const std::uint64_t backlog0 = cluster->backlogged();
    const std::uint64_t dropped0 = cluster->dropped();
    const Snapshot s0 = Snapshot::take();
    const std::int64_t t0 = now_ns();
    cluster->set_tracing(true);
    const Phase w1 = load->run(std::numeric_limits<std::size_t>::max(),
                                 now_ns() + window_ns / 2, spans.get());
    cluster->set_tracing(false);
    const std::int64_t t1 = now_ns();
    const Snapshot s1 = Snapshot::take();
    const std::uint64_t backlog1 = cluster->backlogged();
    const std::uint64_t dropped1 = cluster->dropped();
    retire();  // joins the node threads: their tallies are final

    NodeTally sum;
    std::vector<double> start_delay_ms;
    std::vector<Message> captured;
    for (const auto& tt : cluster->timed()) {
      const NodeTally& t = tt->tally();
      sum.step_ns += t.step_ns;
      sum.self_ns += t.self_ns;
      sum.recv_ns += t.recv_ns;
      sum.send_ns += t.send_ns;
      sum.busy_steps += t.busy_steps;
      sum.frames += t.frames;
      sum.sends += t.sends;
      for (std::size_t i = w1.first; i < w1.end && i < t.first_step_ns.size(); ++i) {
        if (t.first_step_ns[i] != 0) {
          start_delay_ms.push_back(
              static_cast<double>(t.first_step_ns[i] -
                                  load->propose_ns(i)) * 1e-6);
        }
      }
      captured.insert(captured.end(), t.captured.begin(), t.captured.end());
    }
    gate_and_drop();

    const Delta d{s0, s1};
    const double ops = static_cast<double>(w1.decided);
    const double self_s = static_cast<double>(sum.self_ns) * 1e-9;
    const double node_wall_s = static_cast<double>(kNodes) * seconds_between(t0, t1);
    const double frames = static_cast<double>(sum.frames);
    const double rate0 = w0.rate();
    const double rate1 = w1.rate();
    const double ds_s = d.sum("geom.delta_star.seconds");
    const double ds_calls = d.counter("geom.delta_star.calls");

    rep.set("net.send_us", ratio(static_cast<double>(sum.send_ns) * 1e-3,
                                 static_cast<double>(sum.sends)));
    rep.set("net.recv_wait_us", ratio(static_cast<double>(sum.recv_ns) * 1e-3, frames));
    const QueueDepth qd = queue_depth(d.buckets("net.queue_depth"));
    rep.set("net.queue_depth_mean", qd.mean);
    rep.set("net.frames_per_op", ratio(d.counter("net.frames_sent"), ops));
    rep.set("net.bytes_per_op", ratio(d.counter("net.bytes_sent"), ops));
    rep.set("net.codec_ns_per_frame", codec_ns_per_frame(captured, rep));
    rep.set("net_node.step_self_us",
            ratio(static_cast<double>(sum.self_ns) * 1e-3,
                  static_cast<double>(sum.busy_steps)));
    rep.set("net_node.busy_frac", ratio(self_s, node_wall_s));
    rep.set("net_node.start_delay_ms", percentile(start_delay_ms, 0.5));
    rep.set("net_node.backlog_frac",
            ratio(static_cast<double>(backlog1 - backlog0), frames));
    rep.set("net_node.dropped_frac",
            ratio(static_cast<double>(dropped1 - dropped0), frames));
    rep.set("protocols.rbc_emits_per_op", ratio(d.counter("protocols.rbc.emits"), ops));
    rep.set("consensus.delta_star_calls_per_op", ratio(ds_calls, ops));
    rep.set("hull.delta_star_share", ratio(ds_s, self_s));
    rep.set("hull.delta_star_us", ratio(ds_s * 1e6, ds_calls));
    for (const char* m : {"gamma_nonempty", "simplex_inradius", "numerical"}) {
      rep.set(fmt("hull.method.%s_per_op", m),
              ratio(d.counter(fmt("geom.delta_star.method.%s", m)), ops));
    }
    rep.set("hull.bisect_iters_per_call",
            ratio(d.counter("geom.delta_star.bisect_iters"), ds_calls));
    rep.set("opt.minimax_share", ratio(d.sum("opt.minimax.seconds"), self_s));
    rep.set("opt.minimax_evals_per_call",
            ratio(d.counter("opt.minimax.evals"), d.counter("opt.minimax.calls")));
    rep.set("lp.share", ratio(d.sum("lp.seconds"), self_s));
    rep.set("lp.pivots_per_op", ratio(d.counter("lp.pivots"), ops));
    rep.set("lp.warm_dual_pivots_per_op", ratio(d.counter("lp.warm.dual_pivots"), ops));
    rep.set("lp.warm_hit_rate",
            ratio(d.counter("lp.warm.hits"), d.counter("lp.warm.attempts")));
    rep.set("bench.trace_overhead_pct", ratio(100.0 * (rate0 - rate1), rate0));
    rep.set("bench.uncovered_frac",
            1.0 - ratio(static_cast<double>(sum.step_ns) * 1e-9, node_wall_s));

    rep.note(fmt("traced window: %zu instances decided in %.2f s; untraced "
                 "half %.1f/s, traced half %.1f/s",
                 w1.decided, seconds_between(t0, t1), rate0, rate1));
    rep.note(fmt("node-thread wall split (%zu threads x %.2f s): net.receive "
                 "%.1f%%, net.send %.1f%%, step self %.1f%% [delta* %.1f%%, "
                 "lp %.1f%%, minimax %.1f%%], outside step() %.1f%%",
                 kNodes, seconds_between(t0, t1),
                 100 * ratio(static_cast<double>(sum.recv_ns) * 1e-9, node_wall_s),
                 100 * ratio(static_cast<double>(sum.send_ns) * 1e-9, node_wall_s),
                 100 * ratio(self_s, node_wall_s), 100 * ratio(ds_s, node_wall_s),
                 100 * ratio(d.sum("lp.seconds"), node_wall_s),
                 100 * ratio(d.sum("opt.minimax.seconds"), node_wall_s),
                 100 * rep.values["bench.uncovered_frac"]));
    rep.note(fmt("codec replay over %zu captured messages", captured.size()));
    rep.note(fmt("net.queue_depth: %.0f readings, %.0f above the last bucket "
                 "excluded (the mailbox depth counter read mid-update as a "
                 "wrapped negative); histogram sum/count would read %.4g",
                 qd.readings, qd.excluded,
                 ratio(d.sum("net.queue_depth"), d.count("net.queue_depth"))));
  }

  rep.note(fmt("correctness gate: %llu instances checked, worst pairwise Linf "
               "%.4g (eps %.2g), worst validity excess %.3g (limit %.0e)",
               static_cast<unsigned long long>(rep.attempted), worst_linf,
               kEpsilon, worst_excess, kMaxValidityExcess));
  if (spans) {
    const std::string path = opt.out_dir + "/" + label + ".spans.jsonl";
    if (spans->write_jsonl(path)) {
      rep.note(fmt("spans: %zu written to %s (%zu over capacity, counted only)",
                   spans->recorded(), path.c_str(), spans->dropped()));
    }
  }
  return rep;
}

}  // namespace perfbench
