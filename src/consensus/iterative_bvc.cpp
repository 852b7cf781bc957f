#include "consensus/iterative_bvc.h"

#include "hull/gamma.h"
#include "protocols/scalar_consensus.h"

namespace rbvc::consensus {

namespace {
constexpr const char* kKind = "iter";
}

IterativeBvcProcess::IterativeBvcProcess(Params prm, sim::ProcessId self,
                                         Vec input)
    : prm_(prm), self_(self), value_(std::move(input)) {
  RBVC_REQUIRE(prm_.n >= 2, "iterative BVC: need n >= 2");
  RBVC_REQUIRE(prm_.rounds >= 1, "iterative BVC: need rounds >= 1");
  RBVC_REQUIRE(self_ < prm_.n, "process id out of range");
  history_.push_back(value_);
}

Vec IterativeBvcProcess::value_for(sim::ProcessId, std::size_t) {
  return value_;
}

void IterativeBvcProcess::send_all(std::size_t round_no, sim::Outbox& out) {
  for (sim::ProcessId r = 0; r < prm_.n; ++r) {
    if (r == self_) continue;
    sim::Message m;
    m.kind = kKind;
    m.meta = {static_cast<int>(round_no)};
    m.payload = value_for(r, round_no);
    out.send(r, std::move(m));
  }
}

Vec IterativeBvcProcess::update(const std::vector<Vec>& received) const {
  // Safe-area move: a deterministic point of Gamma_f(received). The
  // received multiset includes our own current value, so |received| is
  // usually n; if the LP finds the intersection empty (too few values or a
  // degenerate round) the process holds its value -- holding is always
  // valid.
  if (received.size() > prm_.f) {
    if (auto g = gamma_point(received, prm_.f, prm_.tol)) {
      return *g;
    }
  }
  return value_;
}

void IterativeBvcProcess::round(std::size_t round_no,
                                const std::vector<sim::Message>& inbox,
                                sim::Outbox& out) {
  if (decided_) return;
  if (round_no == 0) {
    send_all(0, out);
    return;
  }

  // Collect this round's values: first message per sender wins, malformed
  // payloads dropped, plus our own current value.
  std::vector<bool> seen(prm_.n, false);
  std::vector<Vec> received;
  received.reserve(prm_.n);
  received.push_back(value_);
  seen[self_] = true;
  for (const sim::Message& m : inbox) {
    if (m.kind != kKind || m.meta.size() != 1) continue;
    if (m.meta[0] != static_cast<int>(round_no - 1)) continue;
    if (m.payload.size() != value_.size()) continue;
    if (m.from >= prm_.n || seen[m.from]) continue;
    seen[m.from] = true;
    received.push_back(m.payload);
  }

  value_ = update(received);
  history_.push_back(value_);

  if (round_no >= prm_.rounds) {
    decided_ = true;
    return;
  }
  send_all(round_no, out);
}

const Vec& IterativeBvcProcess::decision() const {
  RBVC_REQUIRE(decided_, "decision(): process has not decided yet");
  return value_;
}

}  // namespace rbvc::consensus
