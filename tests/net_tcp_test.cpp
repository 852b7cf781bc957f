// TcpTransport: mesh establishment on loopback, framed delivery, protocol
// traffic over real sockets, crash (send-to-dead-peer) behavior, handshake
// edge cases driven by raw client sockets, and cluster-string parsing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp_transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "protocols/bracha_rbc.h"

namespace {

using rbvc::Vec;
using rbvc::net::HostPort;
using rbvc::net::TcpOptions;
using rbvc::net::TcpTransport;
using rbvc::net::Transport;
using rbvc::net::parse_cluster;
using rbvc::protocols::BrachaRbc;
using rbvc::sim::Message;
using rbvc::sim::ProcessId;
namespace wire = rbvc::net::wire;

// Bound-and-listening loopback socket with a kernel-assigned port, for
// handing to TcpTransport's adopt-a-listener constructor.
int listen_loopback(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 8), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port_out = ntohs(addr.sin_port);
  return fd;
}

// Raw client connection to 127.0.0.1:port -- a hand-driven "dialer" that
// lets tests control exactly how handshake bytes land in the segments.
int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string hello_frame(std::uint64_t id) {
  std::string body;
  for (std::size_t i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((id >> (8 * i)) & 0xFF));
  }
  return wire::frame(wire::FrameType::kHello, body);
}

void send_all(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

// A 2-entry cluster whose peer-1 endpoint is never dialed by endpoint 0
// (only the higher id dials), so the raw sockets above fully control the
// accept side.
std::unique_ptr<TcpTransport> accept_only_server(std::uint16_t& port_out,
                                                 TcpOptions opts = {}) {
  const int lfd = listen_loopback(port_out);
  return std::make_unique<TcpTransport>(
      0, std::vector<HostPort>{{"127.0.0.1", port_out}, {"127.0.0.1", 1}},
      lfd, opts);
}

TEST(ParseCluster, HostPortList) {
  const auto c = parse_cluster("127.0.0.1:7000,localhost:7001,10.0.0.2:80");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].host, "127.0.0.1");
  EXPECT_EQ(c[0].port, 7000);
  EXPECT_EQ(c[1].host, "localhost");
  EXPECT_EQ(c[1].port, 7001);
  EXPECT_EQ(c[2].host, "10.0.0.2");
  EXPECT_EQ(c[2].port, 80);
  EXPECT_THROW(parse_cluster("no-port"), std::exception);
  EXPECT_THROW(parse_cluster(""), std::exception);
}

TEST(TcpTransportTest, MeshConnectsAndDelivers) {
  auto cluster = TcpTransport::make_local_cluster(3);
  for (auto& t : cluster) {
    EXPECT_EQ(t->wait_connected(2, 10000), 2u) << "endpoint " << t->self();
  }
  // Every ordered pair delivers, with sender stamped.
  for (ProcessId from = 0; from < 3; ++from) {
    for (ProcessId to = 0; to < 3; ++to) {
      if (from == to) continue;
      cluster[from]->send(to, Message("ping", {static_cast<int>(from)}));
    }
  }
  for (ProcessId to = 0; to < 3; ++to) {
    std::vector<bool> seen(3, false);
    for (int k = 0; k < 2; ++k) {
      auto m = cluster[to]->receive(10000);
      ASSERT_TRUE(m.has_value()) << "endpoint " << to;
      EXPECT_EQ(m->kind, "ping");
      EXPECT_EQ(m->to, to);
      seen[m->from] = true;
    }
    for (ProcessId from = 0; from < 3; ++from) {
      EXPECT_EQ(seen[from], from != to);
    }
  }
  for (auto& t : cluster) t->close();
}

TEST(TcpTransportTest, SelfSendLoopsBackWithoutSocket) {
  auto cluster = TcpTransport::make_local_cluster(2);
  cluster[0]->send(0, Message("self", {}, Vec{1.0}));
  auto m = cluster[0]->receive(2000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 0u);
  EXPECT_EQ(m->payload, Vec{1.0});
}

TEST(TcpTransportTest, LargePayloadSurvivesFraming) {
  auto cluster = TcpTransport::make_local_cluster(2);
  cluster[0]->wait_connected(1, 10000);
  Vec big(20000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<double>(i) * 0.5 - 1000.0;
  }
  cluster[0]->send(1, Message("bulk", {1, 2, 3}, big));
  auto m = cluster[1]->receive(10000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, big);
  EXPECT_EQ(m->meta, (std::vector<int>{1, 2, 3}));
}

TEST(TcpTransportTest, SendToDeadPeerDropsInsteadOfBlocking) {
  auto cluster = TcpTransport::make_local_cluster(3);
  for (auto& t : cluster) t->wait_connected(2, 10000);
  cluster[2]->close();  // peer 2 crashes
  // Give the readers a moment to observe the hangup, then hammer sends:
  // they must neither block nor throw (crash-fault model).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 100; ++i) {
    cluster[0]->send(2, Message("into-the-void", {i}));
  }
  // Traffic between live peers still flows.
  cluster[0]->send(1, Message("alive"));
  auto m = cluster[1]->receive(10000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, "alive");
}

// A dialer pipelines message frames right behind its hello; when the
// kernel coalesces them into one segment the accept side must not drop the
// bytes that follow the hello.
TEST(TcpTransportTest, CoalescedHandshakeKeepsTrailingFrames) {
  std::uint16_t port = 0;
  auto server = accept_only_server(port);
  const int c = dial_loopback(port);
  Message m1("coalesced", {1});
  Message m2("coalesced", {2}, Vec{0.5});
  m1.from = m2.from = 1;
  send_all(c, hello_frame(1) + wire::frame_message(m1) +
                  wire::frame_message(m2));
  auto r1 = server->receive(10000);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->meta, (std::vector<int>{1}));
  auto r2 = server->receive(10000);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->meta, (std::vector<int>{2}));
  EXPECT_EQ(r2->payload, Vec{0.5});
  ::close(c);
  server->close();
}

// Hello plus a partial message frame in the first segment: the reader must
// resume mid-frame instead of starting mid-stream and hitting bad magic.
TEST(TcpTransportTest, FrameSplitAcrossHandshakeBoundaryDelivers) {
  std::uint16_t port = 0;
  auto server = accept_only_server(port);
  const int c = dial_loopback(port);
  Message m("split", {7, 8}, Vec{-2.0, 4.0});
  m.from = 1;
  const std::string blob = hello_frame(1) + wire::frame_message(m);
  const std::size_t cut = hello_frame(1).size() + 5;  // mid-header of m
  send_all(c, blob.substr(0, cut));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send_all(c, blob.substr(cut));
  auto r = server->receive(10000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, "split");
  EXPECT_EQ(r->meta, (std::vector<int>{7, 8}));
  EXPECT_EQ(r->payload, (Vec{-2.0, 4.0}));
  ::close(c);
  server->close();
}

// A client that connects and never speaks must neither block later
// handshakes (the hello is read off the acceptor thread) nor hang close()
// (its fd is receive-timed-out and shut down on close).
TEST(TcpTransportTest, SilentClientDoesNotWedgeAcceptorOrClose) {
  std::uint16_t port = 0;
  TcpOptions opts;
  opts.handshake_timeout_ms = 250;
  auto server = accept_only_server(port, opts);
  const int silent = dial_loopback(port);  // accepted first, says nothing
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int talker = dial_loopback(port);
  Message m("after-silent", {42});
  m.from = 1;
  send_all(talker, hello_frame(1) + wire::frame_message(m));
  auto r = server->receive(10000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, "after-silent");
  server->close();  // must return despite the still-silent connection
  ::close(silent);
  ::close(talker);
}

// A peer speaks only for itself: the hello names the sender, so a frame
// claiming another sender (or addressed to another node) is counted as a
// wire error and drops the connection instead of being delivered.
TEST(TcpTransportTest, FrameClaimingAnotherSenderIsDropped) {
  std::uint16_t port = 0;
  const int lfd = listen_loopback(port);
  // Endpoint 0 never dials 1..3 (only the higher id dials), so the raw
  // sockets below fully control the accept side. Each connection speaks
  // for its own id, so no handshake races a drop.
  TcpTransport server(0,
                      std::vector<HostPort>{{"127.0.0.1", port},
                                            {"127.0.0.1", 1},
                                            {"127.0.0.1", 1},
                                            {"127.0.0.1", 1}},
                      lfd, TcpOptions{});
  const rbvc::obs::Counter& errors =
      rbvc::obs::global().counter("net.wire_errors");
  const auto wait_for_errors = [&](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (errors.value() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return errors.value() >= n;
  };
  const std::uint64_t before = errors.value();

  Message forged("forged", {1});
  forged.from = 1;  // the connection introduced itself as 2
  Message behind("behind", {2});
  behind.from = 2;
  const int a = dial_loopback(port);
  send_all(a, hello_frame(2) + wire::frame_message(forged) +
                  wire::frame_message(behind));
  EXPECT_TRUE(wait_for_errors(before + 1));

  Message misaddressed("misaddressed", {3});
  misaddressed.from = 1;
  misaddressed.to = 3;
  const int b = dial_loopback(port);
  send_all(b, hello_frame(1) + wire::frame_message(misaddressed));
  EXPECT_TRUE(wait_for_errors(before + 2));

  Message honest("honest", {4});
  honest.from = 3;
  const int c = dial_loopback(port);
  send_all(c, hello_frame(3) + wire::frame_message(honest));
  auto r = server.receive(10000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, "honest");
  EXPECT_EQ(r->from, 3u);
  EXPECT_FALSE(server.receive(50).has_value());
  ::close(a);
  ::close(b);
  ::close(c);
  server.close();
}

TEST(TcpTransportTest, ReceiveAfterCloseReportsClosed) {
  auto cluster = TcpTransport::make_local_cluster(2);
  cluster[0]->close();
  EXPECT_TRUE(cluster[0]->closed());
  EXPECT_FALSE(cluster[0]->receive(100).has_value());
}

// The acceptance bar: the identical BrachaRbc component that runs over the
// sim and LocalBus also runs over TCP sockets.
TEST(TcpTransportTest, BrachaRbcOverSockets) {
  constexpr std::size_t kN = 4, kF = 1;
  auto cluster = TcpTransport::make_local_cluster(kN);
  for (auto& t : cluster) t->wait_connected(kN - 1, 10000);
  const Vec value{3.25, -0.5};
  std::vector<Vec> delivered(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      Transport& t = *cluster[id];
      BrachaRbc rbc(kN, kF, id);
      if (id == 1) rbc.broadcast(5, value, t, {9, 8});
      while (true) {
        auto m = t.receive(10000);
        ASSERT_TRUE(m.has_value()) << "endpoint " << id << " starved";
        auto dels = rbc.on_message(*m, t);
        if (!dels.empty()) {
          EXPECT_EQ(dels.front().source, 1u);
          EXPECT_EQ(dels.front().instance, 5);
          EXPECT_EQ(dels.front().extra, (std::vector<int>{9, 8}));
          delivered[id] = dels.front().value;
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId id = 0; id < kN; ++id) EXPECT_EQ(delivered[id], value);
}

}  // namespace
