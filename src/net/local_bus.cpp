#include "net/local_bus.h"

#include "obs/metrics.h"

namespace rbvc::net {

class LocalBus::Endpoint final : public Transport {
 public:
  Endpoint(LocalBus& bus, ProcessId self, std::size_t n)
      : bus_(bus), self_(self), n_(n) {}

  void send(ProcessId to, Message m) override {
    RBVC_REQUIRE(to < n_, "LocalBus::send: unknown recipient");
    m.from = self_;
    m.to = to;
    bus_.endpoints_[to]->mailbox_.push(std::move(m));
    obs::counter(obs::m::net_frames_sent).inc();
  }

  std::optional<Message> receive(int timeout_ms) override {
    auto m = mailbox_.pop(timeout_ms);
    if (m) {
      obs::counter(obs::m::net_frames_received).inc();
      obs::histogram(obs::m::net_queue_depth)
          .observe(static_cast<double>(mailbox_.depth()));
    }
    return m;
  }

  ProcessId self() const override { return self_; }
  std::size_t size() const override { return n_; }
  bool closed() const override { return mailbox_.closed(); }

  Mailbox mailbox_;

 private:
  LocalBus& bus_;
  ProcessId self_;
  std::size_t n_;
};

LocalBus::LocalBus(std::size_t n) {
  RBVC_REQUIRE(n > 0, "LocalBus: need at least one endpoint");
  endpoints_.reserve(n);
  for (ProcessId id = 0; id < n; ++id) {
    endpoints_.push_back(std::make_unique<Endpoint>(*this, id, n));
  }
}

LocalBus::~LocalBus() { close(); }

Transport& LocalBus::endpoint(ProcessId id) {
  RBVC_REQUIRE(id < endpoints_.size(), "LocalBus::endpoint: unknown id");
  return *endpoints_[id];
}

void LocalBus::close() {
  for (auto& ep : endpoints_) ep->mailbox_.close();
}

}  // namespace rbvc::net
