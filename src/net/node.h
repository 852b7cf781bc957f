// Transport-hosted consensus runtime: one ConsensusNode per cluster member
// runs a stream of Relaxed Verified Averaging instances (consensus/
// async_averaging.h) over any net::Transport, demultiplexed by instance id;
// a ClusterClient proposes inputs and collects decisions. This is the
// rbvc-node / rbvc-client core and the engine of bench_net_cluster.
//
// Cluster layout: transport ids [0, n) are consensus nodes; ids >= n are
// clients. Protocol traffic ("rbc", "witness") is instance-tagged by
// prefixing meta with the instance id -- the prefix is added on send and
// stripped before the protocol object sees the message, so BrachaRbc /
// WitnessExchange / AsyncAveragingProcess run byte-identically to their sim
// hosting. Node-level kinds:
//   "propose" client -> node : meta = [instance], payload = this node's
//                              input vector; starts the instance. A
//                              propose from a node id is dropped.
//   "decided" node -> client : meta = [instance, ok], payload = decision
//                              (empty when the instance failed).
// Messages that outrun their propose (a peer's round-0 broadcast arriving
// first) are buffered per instance and replayed once the propose lands.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/async_averaging.h"
#include "net/transport.h"

namespace rbvc::net {

/// Instance-scoped send channel: prefixes meta with the instance id so one
/// transport carries many interleaved protocol instances.
class InstanceOutbox final : public Outbox {
 public:
  InstanceOutbox(Transport& t, int instance) : t_(t), instance_(instance) {}
  void send(ProcessId to, Message m) override {
    m.meta.insert(m.meta.begin(), instance_);
    t_.send(to, std::move(m));
  }

 private:
  Transport& t_;
  int instance_;
};

class ConsensusNode {
 public:
  struct Params {
    consensus::AsyncAveragingProcess::Params prm;  // prm.n = node count
    /// Stop serving (simulated crash) after this many local decisions;
    /// 0 = never. The CI smoke's crash-faulted node uses this.
    std::size_t crash_after_decided = 0;
    /// Drop oldest decided instances beyond this many retained (0 = keep
    /// all); bounds memory under sustained pipelined load.
    std::size_t retain_instances = 1024;
  };

  struct Stats {
    std::size_t proposed = 0;
    std::size_t decided = 0;
    std::size_t failed = 0;
    std::size_t dropped = 0;  // unroutable / malformed messages
  };

  /// The serve loop's progress, readable from another thread (the admin
  /// endpoint, net/admin.h) while serve() runs. Only the serve thread
  /// writes, with relaxed stores; a reader sees a near-point-in-time view,
  /// never a torn one.
  struct LiveStatus {
    std::atomic<std::uint64_t> proposed{0};
    std::atomic<std::uint64_t> decided{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> backlogged{0};  // messages buffered pre-propose
    // Values refused by verify-by-recompute (AsyncAveragingProcess::
    // rejected(), summed over instances).
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::int64_t> live_instances{0};
    std::atomic<std::int64_t> gc_floor{0};
    std::atomic<std::int64_t> last_decided{-1};   // newest reported instance
    std::atomic<std::int64_t> last_decide_ns{0};  // its start -> decide ns
    std::atomic<bool> crashed{false};
  };

  ConsensusNode(Params params, Transport& t);

  /// Handles one delivered message if any arrives within timeout_ms.
  /// Returns false when nothing arrived (idle) or the node has crashed.
  bool step(int timeout_ms);

  /// Serves until `stop` becomes true or the simulated crash point; the
  /// receive loop wakes every poll_ms to re-check `stop`.
  void serve(const std::atomic<bool>& stop, int poll_ms = 20);

  /// A snapshot of live()'s counters.
  Stats stats() const;
  const LiveStatus& live() const { return live_; }
  /// One-line JSON of the live status, alphabetical keys -- the admin
  /// endpoint's "status" reply. Safe from any thread.
  std::string status_json() const;
  bool crashed() const { return crashed_; }
  Transport& transport() { return t_; }

 private:
  struct Instance {
    std::unique_ptr<consensus::AsyncAveragingProcess> proc;
    std::vector<Message> backlog;  // arrived before the propose
    ProcessId client = 0;
    bool reported = false;
    std::uint64_t start_ns = 0;  // propose arrival, for decide latency
  };

  void handle(Message m);
  void start_instance(int instance, const Message& propose);
  void deliver(int instance, const Message& m);
  /// Runs one protocol callback on `inst` and records it: a kProtoStep
  /// event with its wall and LP time, and its verify rejections.
  template <class Callback>
  void protocol_step(int instance, Instance& inst, Callback&& callback);
  void report_if_decided(int instance);
  void gc();

  Params params_;
  Transport& t_;
  LiveStatus live_;
  bool crashed_ = false;
  int gc_floor_ = 0;  // instances below this id were retired by gc()
  std::map<int, Instance> instances_;
};

/// One decision notification collected by a client.
struct DecisionEvent {
  ProcessId node = 0;
  int instance = 0;
  bool ok = false;
  Vec value;
};

/// Client endpoint: proposes instances to every node and pumps decision
/// notifications. Drive it from a single thread.
class ClusterClient {
 public:
  /// `t.self()` must be >= n (a non-node id); `n` is the node count.
  ClusterClient(Transport& t, std::size_t n);

  /// Starts `instance` with inputs[i] as node i's input (inputs.size()==n).
  void propose(int instance, const std::vector<Vec>& inputs);

  /// Next decision notification, or nullopt after timeout_ms of idleness.
  std::optional<DecisionEvent> next_decision(int timeout_ms);

 private:
  Transport& t_;
  std::size_t n_;
};

}  // namespace rbvc::net
