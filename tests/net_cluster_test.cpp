// Cluster runtime end to end: ConsensusNode + ClusterClient deciding
// pipelined instance streams over LocalBus and TCP (including a
// crash-faulted node), and the sync-round driver running DolevStrong / ALGO
// over an asynchronous transport with a differential against the sim
// engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/algo_relaxed.h"
#include "net/admin.h"
#include "net/load.h"
#include "net/local_bus.h"
#include "net/node.h"
#include "net/sync_driver.h"
#include "net/tcp_transport.h"
#include "obs/events.h"
#include "protocols/bracha_rbc.h"
#include "protocols/dolev_strong.h"
#include "sim/sync_engine.h"

namespace {

using rbvc::Vec;
using rbvc::consensus::AlgoProcess;
using rbvc::net::ClusterClient;
using rbvc::net::ConsensusNode;
using rbvc::net::LoadOptions;
using rbvc::net::LocalBus;
using rbvc::net::TcpTransport;
using rbvc::net::Transport;
using rbvc::net::run_pipelined_load;
using rbvc::net::run_sync_over_transport;
using rbvc::protocols::DolevStrongProcess;
using rbvc::sim::ProcessId;

ConsensusNode::Params node_params(std::size_t n, std::size_t f) {
  ConsensusNode::Params p;
  p.prm.n = n;
  p.prm.f = f;
  p.prm.rounds = 2;
  return p;
}

struct NodeFleet {
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<ConsensusNode>> nodes;
  std::vector<std::thread> threads;

  void add(ConsensusNode::Params params, Transport& t) {
    nodes.push_back(std::make_unique<ConsensusNode>(params, t));
    threads.emplace_back([this, node = nodes.back().get()] {
      node->serve(stop);
    });
  }
  void shutdown() {
    stop.store(true);
    for (auto& t : threads) t.join();
    threads.clear();
  }
  ~NodeFleet() { shutdown(); }
};

TEST(ClusterTest, PipelinedInstancesOverLocalBus) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);  // nodes 0..3, client 4
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 6;
  opt.window = 3;
  opt.quorum = kN;  // all nodes alive: demand unanimity
  opt.dim = 2;
  opt.seed = 11;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_EQ(res.latencies_ms.size(), opt.instances);
  fleet.shutdown();
  std::size_t proposed = 0;
  for (const auto& n : fleet.nodes) proposed += n->stats().proposed;
  EXPECT_EQ(proposed, kN * opt.instances);
}

// Ids below n are nodes: a node's propose would choose a correct node's
// input and receive its decision reports, so only a client's counts.
TEST(ClusterTest, ProposeFromANodeIdIsDropped) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);  // nodes 0..3, client 4
  ConsensusNode node(node_params(kN, 1), bus.endpoint(0));
  const rbvc::sim::Message propose("propose", {0}, Vec{5.0, 5.0});
  bus.endpoint(1).send(0, propose);
  ASSERT_TRUE(node.step(10000));
  EXPECT_EQ(node.stats().proposed, 0u);
  EXPECT_EQ(node.stats().dropped, 1u);
  bus.endpoint(kN).send(0, propose);
  ASSERT_TRUE(node.step(10000));
  EXPECT_EQ(node.stats().proposed, 1u);
  EXPECT_EQ(node.stats().dropped, 1u);
  bus.close();
}

// A value whose view names an id outside the cluster is refused by
// verify-by-recompute, and the refusal is visible live: in the admin
// status and as a verify_reject event naming the sender.
TEST(ClusterTest, BadViewIdIsRejectedVisibly) {
  constexpr std::size_t kN = 4;
  constexpr ProcessId kDriven = 3;  // this test speaks for node 3
  LocalBus bus(kN + 1);             // nodes 0..3, client 4
  NodeFleet fleet;
  for (ProcessId id = 0; id < kDriven; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  for (ProcessId id = 0; id < kDriven; ++id) {
    bus.endpoint(kN).send(id, rbvc::sim::Message("propose", {0},
                                                 Vec{1.0 * id, 0.0}));
  }
  rbvc::protocols::BrachaRbc rbc(kN, 1, kDriven);
  rbvc::net::InstanceOutbox out(bus.endpoint(kDriven), /*instance=*/0);
  rbc.broadcast(/*round=*/1, Vec{0.5, 0.5}, out, {0, 1, 99});

  // The honest nodes echo, ready and deliver the broadcast among
  // themselves, then refuse it.
  auto rejected = [&] {
    std::uint64_t r = 0;
    for (const auto& n : fleet.nodes) r += n->live().rejected.load();
    return r;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rejected() < kDriven && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fleet.shutdown();
  bus.close();
  EXPECT_EQ(rejected(), kDriven);  // one refusal per honest node

  const std::string status = fleet.nodes[0]->status_json();
  const std::size_t at = status.find("\"rejected\":");
  ASSERT_NE(at, std::string::npos) << status;
  EXPECT_GE(std::stoull(status.substr(at + 11)), 1u) << status;
  EXPECT_EQ(status.rfind("{\"backlogged\"", 0), 0u) << status;

  bool event = false;
  for (const auto& e : rbvc::obs::events::snapshot()) {
    event = event ||
            (e.type == rbvc::obs::events::Type::kVerifyReject &&
             e.a == static_cast<std::int64_t>(kDriven) &&
             e.b == static_cast<std::int64_t>(
                        rbvc::consensus::VerifyReject::kBadViewId));
  }
  EXPECT_TRUE(event);
}

TEST(ClusterTest, DecisionsStayNearTheInputs) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);
  // All inputs inside the unit box; every decision must stay within the
  // box inflated by the relaxation (loose bound: one box width).
  const std::vector<Vec> inputs{
      {0.1, 0.2}, {0.9, 0.4}, {0.3, 0.8}, {0.6, 0.6}};
  client.propose(0, inputs);
  std::map<ProcessId, Vec> decisions;
  while (decisions.size() < kN) {
    auto ev = client.next_decision(30000);
    ASSERT_TRUE(ev.has_value()) << "cluster stalled";
    ASSERT_TRUE(ev->ok);
    decisions[ev->node] = ev->value;
  }
  for (const auto& [node, v] : decisions) {
    ASSERT_EQ(v.size(), 2u);
    for (const double x : v) {
      EXPECT_GE(x, -1.0) << "node " << node;
      EXPECT_LE(x, 2.0) << "node " << node;
    }
  }
}

TEST(ClusterTest, CrashFaultedNodeDoesNotStallTheCluster) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    auto params = node_params(kN, 1);
    if (id == 3) params.crash_after_decided = 2;  // the crash-faulted node
    fleet.add(params, bus.endpoint(id));
  }
  ClusterClient client(bus.endpoint(kN), kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 8;
  opt.window = 2;
  opt.quorum = kN - 1;  // f = 1: three ok decisions resolve an instance
  opt.dim = 2;
  opt.seed = 23;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  fleet.shutdown();
  EXPECT_TRUE(fleet.nodes[3]->crashed());
}

TEST(ClusterTest, PipelinedInstancesOverTcp) {
  constexpr std::size_t kN = 4;
  auto cluster = TcpTransport::make_local_cluster(kN + 1);
  for (ProcessId id = 0; id < kN; ++id) {
    cluster[id]->wait_connected(kN - 1, 10000);
  }
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), *cluster[id]);
  }
  ClusterClient client(*cluster[kN], kN);

  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 4;
  opt.window = 2;
  opt.quorum = kN - 1;
  opt.dim = 2;
  opt.seed = 31;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.decided, opt.instances);
  fleet.shutdown();
  for (auto& t : cluster) t->close();
}

// --- sync driver -----------------------------------------------------------

Vec mean_decision(const std::vector<Vec>& vs) {
  Vec out(vs.at(0).size(), 0.0);
  for (const auto& v : vs) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += v[i];
  }
  for (auto& x : out) x /= static_cast<double>(vs.size());
  return out;
}

// DolevStrong (authenticated, sync) over LocalBus must resolve the same
// inputs and decision as the lockstep sim engine: the round driver's
// barriers reconstruct the synchronous model exactly.
TEST(SyncDriverTest, DolevStrongDifferentialAgainstSim) {
  constexpr std::size_t kN = 3, kF = 1;
  rbvc::sim::SignatureAuthority authority(99);
  const std::vector<Vec> inputs{{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const Vec dflt{0.0, 0.0};

  // Reference sim run.
  std::vector<Vec> sim_decisions(kN);
  {
    rbvc::sim::SyncEngine eng;
    for (ProcessId id = 0; id < kN; ++id) {
      eng.add(std::make_unique<DolevStrongProcess>(
          kN, kF, id, inputs[id], dflt, mean_decision,
          authority.signer_for(id), &authority));
    }
    const auto stats = eng.run(DolevStrongProcess::rounds_needed(kF));
    ASSERT_TRUE(stats.all_decided);
    for (ProcessId id = 0; id < kN; ++id) {
      sim_decisions[id] =
          dynamic_cast<DolevStrongProcess&>(eng.process(id)).decision();
    }
  }

  LocalBus bus(kN);
  std::vector<Vec> net_decisions(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      DolevStrongProcess p(kN, kF, id, inputs[id], dflt, mean_decision,
                           authority.signer_for(id), &authority);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = DolevStrongProcess::rounds_needed(kF);
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      EXPECT_EQ(res.timeouts, 0u) << "endpoint " << id;
      net_decisions[id] = p.decision();
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(net_decisions[id], sim_decisions[id]) << "process " << id;
  }
}

// A silent (crashed) participant costs one barrier timeout per round and
// resolves to the default value -- every live process still decides, and
// identically.
TEST(SyncDriverTest, SilentPeerTimesOutToDefault) {
  constexpr std::size_t kN = 3, kF = 1;
  rbvc::sim::SignatureAuthority authority(7);
  const std::vector<Vec> inputs{{2.0}, {4.0}, {100.0}};  // 2 never speaks
  const Vec dflt{0.0};

  LocalBus bus(kN);
  std::vector<Vec> resolved0;
  std::vector<Vec> decisions(kN - 1);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN - 1; ++id) {
    threads.emplace_back([&, id] {
      DolevStrongProcess p(kN, kF, id, inputs[id], dflt, mean_decision,
                           authority.signer_for(id), &authority);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = DolevStrongProcess::rounds_needed(kF);
      opts.round_timeout_ms = 400;
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      EXPECT_GT(res.timeouts, 0u) << "endpoint " << id;
      decisions[id] = p.decision();
      if (id == 0) resolved0 = p.resolved_inputs();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(decisions[0], decisions[1]);
  ASSERT_EQ(resolved0.size(), kN);
  EXPECT_EQ(resolved0[0], inputs[0]);
  EXPECT_EQ(resolved0[1], inputs[1]);
  EXPECT_EQ(resolved0[2], dflt);  // the silent peer resolves to default
}

// ALGO's EIG core (unauthenticated, n >= 3f+1) over the transport: all
// correct processes reach the identical relaxed decision, matching the sim.
TEST(SyncDriverTest, AlgoOverLocalBusMatchesSim) {
  constexpr std::size_t kN = 4, kF = 1;
  const std::vector<Vec> inputs{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const Vec dflt{0.0, 0.0};

  std::vector<Vec> sim_decisions(kN);
  {
    rbvc::sim::SyncEngine eng;
    for (ProcessId id = 0; id < kN; ++id) {
      eng.add(std::make_unique<AlgoProcess>(kN, kF, id, inputs[id], dflt));
    }
    const auto stats = eng.run(AlgoProcess::rounds_needed(kF));
    ASSERT_TRUE(stats.all_decided);
    for (ProcessId id = 0; id < kN; ++id) {
      sim_decisions[id] =
          dynamic_cast<AlgoProcess&>(eng.process(id)).decision();
    }
  }

  LocalBus bus(kN);
  std::vector<Vec> net_decisions(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      AlgoProcess p(kN, kF, id, inputs[id], dflt);
      rbvc::net::SyncDriverOptions opts;
      opts.max_rounds = AlgoProcess::rounds_needed(kF);
      const auto res = run_sync_over_transport(p, bus.endpoint(id), opts);
      EXPECT_TRUE(res.decided) << "endpoint " << id;
      net_decisions[id] = p.decision();
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_EQ(net_decisions[id], sim_decisions[id]) << "process " << id;
  }
}

// The live-introspection surface: LiveStatus mirrors the serve loop's
// stats, status_json is stable one-line JSON, and the AdminServer answers
// status / metrics / trace over its line protocol while the node serves.
TEST(AdminTest, StatusJsonAndAdminEndpointServeLiveState) {
  constexpr std::size_t kN = 4;
  LocalBus bus(kN + 1);
  NodeFleet fleet;
  for (ProcessId id = 0; id < kN; ++id) {
    fleet.add(node_params(kN, 1), bus.endpoint(id));
  }
  // Port 0: kernel-assigned, race-free under parallel ctest.
  rbvc::net::AdminServer admin(*fleet.nodes[0], 0);
  ASSERT_GT(admin.port(), 0);

  ClusterClient client(bus.endpoint(kN), kN);
  LoadOptions opt;
  opt.nodes = kN;
  opt.instances = 4;
  opt.window = 2;
  opt.quorum = kN;
  opt.dim = 2;
  opt.seed = 23;
  opt.decision_timeout_ms = 30000;
  const auto res = run_pipelined_load(client, opt);
  ASSERT_FALSE(res.stalled);
  ASSERT_EQ(res.decided, opt.instances);

  // status: one line of JSON whose counters match the node's own stats.
  const std::string status =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "status");
  const auto& live = fleet.nodes[0]->live();
  EXPECT_EQ(status, fleet.nodes[0]->status_json() + "\n");
  EXPECT_EQ(live.decided.load(), opt.instances);
  EXPECT_NE(status.find("\"decided\":4"), std::string::npos) << status;
  EXPECT_NE(status.find("\"crashed\":0"), std::string::npos) << status;

  // metrics: the registry dump, which always carries the frames counter.
  const std::string metrics =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "metrics");
  EXPECT_NE(metrics.find("net.frames_sent"), std::string::npos);

  // trace: flight-recorder JSONL that parses back (events from this very
  // load run are in it).
  const std::string trace =
      rbvc::net::admin_query("127.0.0.1", admin.port(), "trace");
  const auto events = rbvc::obs::events::parse_jsonl(trace);
  EXPECT_FALSE(events.empty());

  // Unknown commands get a diagnostic, not a hang.
  EXPECT_EQ(rbvc::net::admin_query("127.0.0.1", admin.port(), "bogus"),
            "err unknown command\n");

  admin.close();
  fleet.shutdown();
  // After shutdown the stats and the live mirror agree exactly.
  EXPECT_EQ(fleet.nodes[0]->stats().proposed, live.proposed.load());
  EXPECT_EQ(fleet.nodes[0]->stats().decided, live.decided.load());
  EXPECT_EQ(fleet.nodes[0]->stats().failed, live.failed.load());
}

// Nearest-rank percentile over the whole q range, including the q=0 edge
// whose rank of ceil(0)-1 = -1 must clamp before the size_t cast, not after.
TEST(LoadResultTest, LatencyPercentileClampsAtBothEnds) {
  rbvc::net::LoadResult res;
  EXPECT_EQ(res.latency_percentile(0.5), 0.0);  // empty: defined fallback
  res.latencies_ms = {40.0, 10.0, 30.0, 20.0};  // sorted: 10 20 30 40
  EXPECT_EQ(res.latency_percentile(0.0), 10.0);
  EXPECT_EQ(res.latency_percentile(0.25), 10.0);
  EXPECT_EQ(res.latency_percentile(0.50), 20.0);
  EXPECT_EQ(res.latency_percentile(0.51), 30.0);
  EXPECT_EQ(res.latency_percentile(0.99), 40.0);
  EXPECT_EQ(res.latency_percentile(1.0), 40.0);
}

}  // namespace
