#include "protocols/bracha_rbc.h"

#include "obs/metrics.h"

namespace rbvc::protocols {

BrachaRbc::BrachaRbc(std::size_t n, std::size_t f, ProcessId self)
    : n_(n), f_(f), self_(self) {
  RBVC_REQUIRE(n_ >= 3 * f_ + 1, "Bracha RBC requires n >= 3f + 1");
}

void BrachaRbc::emit(Phase phase, ProcessId source, int instance,
                     const Content& content, Outbox& out) {
  Message m;
  m.kind = kKind;
  m.meta = {static_cast<int>(source), instance, static_cast<int>(phase)};
  m.meta.insert(m.meta.end(), content.first.begin(), content.first.end());
  m.payload = content.second;
  for (ProcessId p = 0; p < n_; ++p) {
    Message copy = m;
    out.send(p, std::move(copy));
    ++sent_;
  }
  obs::counter(obs::m::protocols_rbc_emits).inc();
}

void BrachaRbc::broadcast(int instance, const Vec& value, Outbox& out,
                          const std::vector<int>& extra) {
  emit(kInit, self_, instance, {extra, value}, out);
}

std::vector<BrachaRbc::Delivery> BrachaRbc::on_message(const Message& m,
                                                       Outbox& out) {
  std::vector<Delivery> deliveries;
  if (!is_rbc(m) || m.meta.size() < 3) return deliveries;
  const int source_raw = m.meta[0];
  if (source_raw < 0 || static_cast<std::size_t>(source_raw) >= n_) {
    return deliveries;
  }
  const ProcessId source = static_cast<ProcessId>(source_raw);
  const int instance = m.meta[1];
  const int phase = m.meta[2];
  const Content content{{m.meta.begin() + 3, m.meta.end()}, m.payload};
  Slot& s = slot(source, instance);

  const std::size_t echo_quorum =
      quorums_.echo ? quorums_.echo : (n_ + f_ + 2) / 2;  // ceil((n+f+1)/2)
  const std::size_t ready_amplify =
      quorums_.ready_amplify ? quorums_.ready_amplify : f_ + 1;
  const std::size_t ready_deliver =
      quorums_.ready_deliver ? quorums_.ready_deliver : 2 * f_ + 1;

  switch (phase) {
    case kInit: {
      // Only the true source's INIT counts (authenticated channels).
      if (m.from != source) break;
      if (!s.sent_echo) {
        s.sent_echo = true;
        emit(kEcho, source, instance, content, out);
      }
      break;
    }
    case kEcho: {
      if (!s.echoed.insert(m.from).second) break;  // one echo per process
      const std::size_t votes = ++s.echo_votes[content];
      if (votes >= echo_quorum && !s.sent_ready) {
        s.sent_ready = true;
        obs::counter(obs::m::protocols_rbc_echo_quorums).inc();
        emit(kReady, source, instance, content, out);
      }
      break;
    }
    case kReady: {
      if (!s.readied.insert(m.from).second) break;  // one ready per process
      const std::size_t votes = ++s.ready_votes[content];
      if (votes >= ready_amplify && !s.sent_ready) {
        s.sent_ready = true;
        obs::counter(obs::m::protocols_rbc_ready_amplifications).inc();
        emit(kReady, source, instance, content, out);
      }
      if (votes >= ready_deliver && !s.delivered) {
        s.delivered = true;
        obs::counter(obs::m::protocols_rbc_deliveries).inc();
        deliveries.push_back({source, instance, content.second, content.first});
      }
      break;
    }
    default:
      break;
  }
  return deliveries;
}

}  // namespace rbvc::protocols
