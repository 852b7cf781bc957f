#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace rbvc::net {

namespace {

// fd ownership: once a connection is adopted, its reader thread owns the
// ::close. Every other thread (writers, TcpTransport::close) may only
// ::shutdown the fd to wake the reader — closing it out from under a
// blocked recv() races, and worse, lets the kernel reuse the fd number
// while the reader still holds it. close_fd is for fds the calling thread
// exclusively owns (rejected handshakes, failed dials, the listen socket
// after the acceptor has been joined).
void close_fd(int fd) {
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

/// SO_RCVTIMEO / SO_SNDTIMEO; ms == 0 restores blocking-forever.
void set_socket_timeout(int fd, int optname, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

int listen_on(const HostPort& hp) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RBVC_REQUIRE(fd >= 0, "tcp: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.port);
  if (::inet_pton(AF_INET, hp.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw invalid_argument("tcp: cannot parse listen host `" + hp.host + "`");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw numerical_error("tcp: cannot listen on " + hp.host + ":" +
                          std::to_string(hp.port) + ": " + err);
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  RBVC_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               "tcp: getsockname failed");
  return ntohs(addr.sin_port);
}

int dial(const HostPort& hp) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(hp.host.c_str(), std::to_string(hp.port).c_str(), &hints,
                    &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

/// Reads one frame from a fresh connection (the kHello handshake). The
/// dialer pipelines message frames right behind the hello on the same
/// socket, so any bytes received past the frame stay in `buf` for the
/// caller to hand to the reader loop — dropping them would silently lose
/// coalesced frames or desync the stream mid-frame.
std::optional<wire::Frame> read_one_frame(int fd, std::string& buf,
                                          bool* timed_out = nullptr) {
  char tmp[512];
  while (true) {
    try {
      if (auto f = wire::try_unframe(buf)) return f;
    } catch (const wire::WireError&) {
      return std::nullopt;
    }
    const ssize_t k = ::recv(fd, tmp, sizeof(tmp), 0);
    if (k <= 0) {  // EOF, error, or SO_RCVTIMEO elapsed
      if (timed_out != nullptr) {
        *timed_out = k < 0 && (errno == EWOULDBLOCK || errno == EAGAIN);
      }
      return std::nullopt;
    }
    buf.append(tmp, static_cast<std::size_t>(k));
  }
}

/// Which consensus instance a message belongs to, for event attribution:
/// node-level and instance-prefixed kinds carry it as meta.front(). -1 for
/// untagged traffic (the sync driver's round tags alias here; its own
/// round_* events carry the authoritative round).
int instance_of(const Message& m) {
  if (m.kind == "__eor" || m.meta.empty()) return -1;
  return static_cast<int>(m.meta.front());
}

std::uint64_t decode_hello(const std::string& body) {
  if (body.size() != 8) throw wire::WireError("wire: truncated body");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(body[i]))
         << (8 * i);
  }
  return v;
}

std::string encode_hello(std::uint64_t id) {
  std::string body;
  for (std::size_t i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((id >> (8 * i)) & 0xFF));
  }
  return wire::frame(wire::FrameType::kHello, body);
}

}  // namespace

std::vector<HostPort> parse_cluster(const std::string& csv) {
  std::vector<HostPort> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    RBVC_REQUIRE(colon != std::string::npos && colon > 0,
                 "parse_cluster: entry `" + entry + "` is not host:port");
    const long port = std::strtol(entry.c_str() + colon + 1, nullptr, 10);
    RBVC_REQUIRE(port > 0 && port < 65536,
                 "parse_cluster: bad port in `" + entry + "`");
    out.push_back({entry.substr(0, colon), static_cast<std::uint16_t>(port)});
    start = comma + 1;
  }
  return out;
}

TcpTransport::TcpTransport(ProcessId self, std::vector<HostPort> cluster,
                           TcpOptions opts)
    : TcpTransport(self, cluster, listen_on(cluster.at(self)), opts) {}

TcpTransport::TcpTransport(ProcessId self, std::vector<HostPort> cluster,
                           int listen_fd, TcpOptions opts)
    : self_(self),
      cluster_(std::move(cluster)),
      opts_(opts),
      listen_fd_(listen_fd),
      ever_connected_(cluster_.size(), false) {
  RBVC_REQUIRE(self_ < cluster_.size(),
               "tcp: self id outside the cluster list");
  conns_.reserve(cluster_.size());
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
  start();
}

void TcpTransport::start() {
  acceptor_ = std::thread([this] { accept_loop(); });
  dialer_ = std::thread([this] { dial_loop(); });
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::close() {
  if (!open_.exchange(false, std::memory_order_acq_rel)) return;
  shutdown_fd(listen_fd_);  // wakes accept(); closed after the join below
  {
    // threads_mu_ serializes with register_connection/accept_loop so no
    // connection can slip in after this shutdown sweep: either it registers
    // first (and is swept here) or it observes open_ == false and aborts.
    // Conn::fd is read atomically, NOT under c.mu — a writer stuck in send
    // holds c.mu, and this shutdown is exactly what wakes it.
    std::lock_guard<std::mutex> lk(threads_mu_);
    for (auto& c : conns_) {
      shutdown_fd(c->fd.load(std::memory_order_acquire));
    }
    for (const int fd : handshaking_) shutdown_fd(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (dialer_.joinable()) dialer_.join();
  close_fd(listen_fd_);
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lk(threads_mu_);
    readers.swap(readers_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  mailbox_.close();
}

void TcpTransport::accept_loop() {
  while (open_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!open_.load(std::memory_order_acquire)) return;
      continue;
    }
    // The hello is read on the connection's own thread: a client that
    // connects and sends nothing must not block further accepts, and the
    // handshaking_ registry lets close() shut the fd down mid-read.
    std::lock_guard<std::mutex> lk(threads_mu_);
    if (!open_.load(std::memory_order_acquire)) {
      close_fd(fd);
      return;
    }
    handshaking_.push_back(fd);
    readers_.emplace_back([this, fd] { server_handshake(fd); });
  }
}

void TcpTransport::unregister_handshake(int fd) {
  std::lock_guard<std::mutex> lk(threads_mu_);
  const auto it = std::find(handshaking_.begin(), handshaking_.end(), fd);
  if (it != handshaking_.end()) handshaking_.erase(it);
}

void TcpTransport::server_handshake(int fd) {
  set_socket_timeout(fd, SO_RCVTIMEO, opts_.handshake_timeout_ms);
  std::string residual;
  bool timed_out = false;
  const auto hello = read_one_frame(fd, residual, &timed_out);
  unregister_handshake(fd);
  if (!hello || hello->type != wire::FrameType::kHello) {
    if (timed_out) {
      // A client that connected and never spoke: distinct from undecodable
      // bytes, and the signature of a half-open dialer or a port scanner.
      obs::counter(obs::m::net_handshake_timeouts).inc();
      obs::events::emit(obs::events::Type::kHandshakeTimeout, -1, fd);
    } else {
      obs::counter(obs::m::net_wire_errors).inc();
    }
    close_fd(fd);
    return;
  }
  std::uint64_t peer = 0;
  try {
    peer = decode_hello(hello->body);
  } catch (const wire::WireError&) {
    obs::counter(obs::m::net_wire_errors).inc();
    close_fd(fd);
    return;
  }
  if (peer >= cluster_.size() || peer == self_) {
    close_fd(fd);
    return;
  }
  set_socket_timeout(fd, SO_RCVTIMEO, 0);  // the reader blocks indefinitely
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (!register_connection(static_cast<ProcessId>(peer), fd,
                           /*dialed=*/false)) {
    close_fd(fd);
    return;
  }
  reader_loop(fd, static_cast<ProcessId>(peer), std::move(residual));
}

void TcpTransport::dial_loop() {
  // The higher id dials: each pair gets exactly one owner for (re)connects.
  while (open_.load(std::memory_order_acquire)) {
    bool all_up = true;
    for (ProcessId peer = 0; peer < self_; ++peer) {
      if (conns_[peer]->fd.load(std::memory_order_acquire) >= 0) continue;
      all_up = false;
      const int fd = dial(cluster_[peer]);
      if (fd < 0) continue;
      const std::string hello = encode_hello(self_);
      if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(hello.size())) {
        close_fd(fd);
        continue;
      }
      adopt_connection(peer, fd, /*dialed=*/true);
    }
    if (!open_.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        all_up ? 4 * opts_.dial_retry_ms : opts_.dial_retry_ms));
  }
}

bool TcpTransport::register_connection(ProcessId peer, int fd, bool dialed) {
  std::lock_guard<std::mutex> lk(threads_mu_);
  if (!open_.load(std::memory_order_acquire)) return false;
  Conn& c = *conns_[peer];
  {
    std::lock_guard<std::mutex> clk(c.mu);
    if (c.fd.load(std::memory_order_relaxed) >= 0) {
      // Keep the existing connection; the duplicate loses. Only one side
      // dials, so this is a redial racing a half-dead socket.
      return false;
    }
    c.fd.store(fd, std::memory_order_release);
    ++c.generation;
  }
  set_socket_timeout(fd, SO_SNDTIMEO, opts_.send_timeout_ms);
  obs::counter(ever_connected_[peer] && dialed ? obs::m::net_reconnects
                                                : obs::m::net_connects)
      .inc();
  obs::events::emit(obs::events::Type::kConnect, -1,
                    static_cast<std::int64_t>(peer), dialed ? 1 : 0);
  ever_connected_[peer] = true;
  return true;
}

void TcpTransport::adopt_connection(ProcessId peer, int fd, bool dialed) {
  if (!register_connection(peer, fd, dialed)) {
    close_fd(fd);
    return;
  }
  std::lock_guard<std::mutex> lk(threads_mu_);
  readers_.emplace_back(
      [this, fd, peer] { reader_loop(fd, peer, std::string()); });
}

void TcpTransport::drop_connection(ProcessId peer, int fd) {
  Conn& c = *conns_[peer];
  // c.mu serializes against in-flight write_frame calls: the reader must
  // not ::close the fd while a writer's send is mid-syscall, or the kernel
  // could hand the fd number to a new connection under the writer.
  std::lock_guard<std::mutex> lk(c.mu);
  int expect = fd;
  c.fd.compare_exchange_strong(expect, -1, std::memory_order_acq_rel);
}

void TcpTransport::reader_loop(int fd, ProcessId peer, std::string buf) {
  std::vector<char> tmp(static_cast<std::size_t>(opts_.io_buffer_bytes));
  // Frames that arrived coalesced with the handshake are already in `buf`,
  // so drain before the first recv.
  while (true) {
    try {
      while (auto f = wire::try_unframe(buf)) {
        if (f->type != wire::FrameType::kMessage) continue;
        const std::uint64_t t0 = obs::events::now_ns();
        Message m = wire::decode_message(f->body);
        const std::uint64_t decode_ns = obs::events::now_ns() - t0;
        // The handshake named the sender, and channels are authenticated
        // point-to-point: a frame that claims another sender, or another
        // recipient, poisons the stream like a decode error.
        if (m.from != peer || m.to != self_) {
          throw wire::WireError("wire: frame routing does not match the "
                                "connection");
        }
        // The sender's Lamport stamp rides at the meta tail; strip it before
        // the message reaches protocol code and merge so every event this
        // node records after delivery is ordered after the send.
        std::int64_t stamp = 0;
        if (const auto lc = obs::events::strip_lamport(m.meta)) {
          stamp = static_cast<std::int64_t>(*lc);
          obs::events::lamport_merge(*lc);
        }
        obs::counter(obs::m::net_frames_received).inc();
        obs::events::emit(obs::events::Type::kFrameRx, instance_of(m), stamp,
                          static_cast<std::int64_t>(decode_ns));
        mailbox_.push(std::move(m));
      }
    } catch (const wire::WireError&) {
      obs::counter(obs::m::net_wire_errors).inc();
      break;  // poisoned stream: drop the connection
    }
    const ssize_t k = ::recv(fd, tmp.data(), tmp.size(), 0);
    if (k <= 0) break;
    obs::counter(obs::m::net_bytes_received).inc(static_cast<std::uint64_t>(k));
    buf.append(tmp.data(), static_cast<std::size_t>(k));
  }
  drop_connection(peer, fd);
  obs::events::emit(obs::events::Type::kHangup, -1,
                    static_cast<std::int64_t>(peer));
  close_fd(fd);  // sole owner of the close — see the ownership note above
}

void TcpTransport::send(ProcessId to, Message m) {
  RBVC_REQUIRE(to < cluster_.size(), "tcp: send to unknown recipient");
  m.from = self_;
  m.to = to;
  if (to == self_) {  // loopback: no socket round-trip
    obs::counter(obs::m::net_frames_sent).inc();
    mailbox_.push(std::move(m));
    return;
  }
  // Tick-then-stamp makes every framed send a Lamport event: the receiver's
  // merge guarantees its delivery (and everything after) orders later.
  const int inst = instance_of(m);
  const std::uint64_t clock = obs::events::lamport_tick();
  obs::events::stamp_lamport(m.meta, clock);
  const std::uint64_t t0 = obs::events::now_ns();
  const std::string bytes = wire::frame_message(m);
  const std::uint64_t encode_ns = obs::events::now_ns() - t0;
  switch (write_frame(*conns_[to], bytes)) {
    case WriteStatus::kOk:
      obs::counter(obs::m::net_frames_sent).inc();
      obs::counter(obs::m::net_bytes_sent).inc(bytes.size());
      obs::events::emit(obs::events::Type::kFrameTx, inst,
                        static_cast<std::int64_t>(clock),
                        static_cast<std::int64_t>(encode_ns));
      return;
    case WriteStatus::kTimeout:
      // The peer was live but stopped draining its socket buffer; the
      // SO_SNDTIMEO hangup is worth its own counter because it means a
      // stall, not a crash — then fall through to the ordinary drop.
      obs::counter(obs::m::net_send_timeout_hangups).inc();
      obs::events::emit(obs::events::Type::kSendTimeoutHangup, inst,
                        static_cast<std::int64_t>(to));
      [[fallthrough]];
    case WriteStatus::kDown:
    case WriteStatus::kError:
      // Crash-fault behavior: a down peer loses messages; the protocols
      // tolerate up to f such peers, and the dialer keeps retrying.
      obs::counter(obs::m::net_send_drops).inc();
      obs::events::emit(obs::events::Type::kSendDrop, inst,
                        static_cast<std::int64_t>(to));
      return;
  }
}

TcpTransport::WriteStatus TcpTransport::write_frame(Conn& c,
                                                    const std::string& bytes) {
  std::lock_guard<std::mutex> lk(c.mu);
  const int fd = c.fd.load(std::memory_order_acquire);
  if (fd < 0) return WriteStatus::kDown;
  std::size_t off = 0;
  while (off < bytes.size()) {
    // Bounded by SO_SNDTIMEO: a peer that stops draining its socket gets
    // hung up on (crash-fault semantics) instead of pinning c.mu forever.
    // close() also wakes a blocked send here by shutting the fd down.
    const ssize_t k =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (k <= 0) {
      const bool timed = k < 0 && (errno == EWOULDBLOCK || errno == EAGAIN);
      shutdown_fd(fd);  // wakes the reader, which owns the ::close
      c.fd.store(-1, std::memory_order_release);
      return timed ? WriteStatus::kTimeout : WriteStatus::kError;
    }
    off += static_cast<std::size_t>(k);
  }
  return WriteStatus::kOk;
}

std::optional<Message> TcpTransport::receive(int timeout_ms) {
  auto m = mailbox_.pop(timeout_ms);
  if (m) {
    obs::histogram(obs::m::net_queue_depth)
        .observe(static_cast<double>(mailbox_.depth()));
    obs::events::emit(obs::events::Type::kQueuePop, instance_of(*m),
                      static_cast<std::int64_t>(mailbox_.last_pop_wait_ns()),
                      static_cast<std::int64_t>(mailbox_.depth()));
  }
  return m;
}

std::size_t TcpTransport::connected() const {
  std::size_t live = 0;
  for (std::size_t peer = 0; peer < conns_.size(); ++peer) {
    if (peer == self_) continue;
    if (conns_[peer]->fd.load(std::memory_order_acquire) >= 0) ++live;
  }
  return live;
}

std::size_t TcpTransport::wait_connected(std::size_t min_peers,
                                         int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const std::size_t live = connected();
    if (live >= min_peers || !open_.load(std::memory_order_acquire) ||
        std::chrono::steady_clock::now() >= deadline) {
      return live;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<std::unique_ptr<TcpTransport>> TcpTransport::make_local_cluster(
    std::size_t n, TcpOptions opts) {
  std::vector<int> fds;
  std::vector<HostPort> cluster;
  fds.reserve(n);
  cluster.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = listen_on({"127.0.0.1", 0});
    fds.push_back(fd);
    cluster.push_back({"127.0.0.1", bound_port(fd)});
  }
  std::vector<std::unique_ptr<TcpTransport>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<TcpTransport>(i, cluster, fds[i], opts));
  }
  return out;
}

}  // namespace rbvc::net
