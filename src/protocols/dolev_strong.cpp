#include "protocols/dolev_strong.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rbvc::protocols {

namespace ds_wire {

Message encode(ProcessId instance, const Vec& value, const SigChain& chain) {
  Message m;
  m.kind = kKind;
  m.meta.reserve(1 + 3 * chain.size());
  m.meta.push_back(static_cast<int>(instance));
  for (const auto& [signer, sig] : chain) {
    m.meta.push_back(static_cast<int>(signer));
    m.meta.push_back(static_cast<int>(sig & 0xffffffffULL));
    m.meta.push_back(static_cast<int>(sig >> 32));
  }
  m.payload = value;
  return m;
}

std::optional<std::pair<ProcessId, SigChain>> decode(const Message& m,
                                                     std::size_t n) {
  if (m.kind != kKind || m.meta.empty()) return std::nullopt;
  if ((m.meta.size() - 1) % 3 != 0) return std::nullopt;
  const int inst = m.meta[0];
  if (inst < 0 || static_cast<std::size_t>(inst) >= n) return std::nullopt;
  SigChain chain;
  for (std::size_t i = 1; i + 2 < m.meta.size() + 1; i += 3) {
    const int signer = m.meta[i];
    if (signer < 0 || static_cast<std::size_t>(signer) >= n) {
      return std::nullopt;
    }
    const auto lo = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(m.meta[i + 1]));
    const auto hi = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(m.meta[i + 2]));
    chain.emplace_back(static_cast<ProcessId>(signer), lo | (hi << 32));
  }
  return std::make_pair(static_cast<ProcessId>(inst), std::move(chain));
}

std::uint64_t chain_digest(ProcessId instance, const Vec& value,
                           const SigChain& prefix) {
  sim::Digest d;
  d.absorb(static_cast<std::uint64_t>(instance));
  d.absorb(value);
  for (const auto& [signer, sig] : prefix) {
    d.absorb(static_cast<std::uint64_t>(signer));
    d.absorb(sig);
  }
  return d.value();
}

bool chain_valid(const sim::SignatureAuthority& authority, ProcessId instance,
                 const Vec& value, const SigChain& chain) {
  obs::counter(obs::m::protocols_ds_chain_validations).inc();
  if (chain.empty()) return false;
  if (chain.front().first != instance) return false;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    for (std::size_t j = i + 1; j < chain.size(); ++j) {
      if (chain[i].first == chain[j].first) return false;  // repeat signer
    }
  }
  SigChain prefix;
  for (const auto& [signer, sig] : chain) {
    if (!authority.verify(signer, chain_digest(instance, value, prefix),
                          sig)) {
      return false;
    }
    prefix.emplace_back(signer, sig);
  }
  return true;
}

}  // namespace ds_wire

DolevStrongProcess::DolevStrongProcess(std::size_t n, std::size_t f,
                                       ProcessId self, Vec input,
                                       Vec default_value, DecisionFn decide,
                                       sim::Signer signer,
                                       const sim::SignatureAuthority* authority)
    : n_(n),
      f_(f),
      self_(self),
      input_(std::move(input)),
      default_(std::move(default_value)),
      signer_(signer),
      authority_(authority),
      decide_(std::move(decide)),
      extracted_(n) {
  RBVC_REQUIRE(n_ >= f_ + 2, "Dolev-Strong IC: need n >= f + 2");
  RBVC_REQUIRE(self_ < n_, "process id out of range");
  RBVC_REQUIRE(authority_ != nullptr, "missing signature authority");
  RBVC_REQUIRE(signer_.id() == self_, "signer does not match process id");
}

std::vector<std::pair<ProcessId, Message>>
DolevStrongProcess::initial_messages() {
  SigChain chain;
  chain.emplace_back(self_,
                     signer_.sign(ds_wire::chain_digest(self_, input_, {})));
  const Message m = ds_wire::encode(self_, input_, chain);
  std::vector<std::pair<ProcessId, Message>> out;
  out.reserve(n_);
  for (ProcessId r = 0; r < n_; ++r) {
    if (r != self_) out.emplace_back(r, m);
  }
  return out;
}

bool DolevStrongProcess::should_relay(ProcessId, const Vec&) { return true; }

void DolevStrongProcess::round(std::size_t round_no,
                               const std::vector<Message>& inbox,
                               Outbox& out) {
  if (decided_) return;

  if (round_no == 0) {
    extracted_[self_].insert(input_);  // trivially extract own value
    for (auto& [to, m] : initial_messages()) {
      Message copy = m;
      out.send(to, std::move(copy));
    }
    return;
  }

  // Absorb round-`round_no` chains (must carry exactly round_no signatures).
  for (const Message& m : inbox) {
    auto parsed = ds_wire::decode(m, n_);
    if (!parsed) continue;
    const auto& [instance, chain] = *parsed;
    if (chain.size() != round_no || round_no > f_ + 1) continue;
    if (m.payload.size() != default_.size()) continue;
    if (validate_chains_ &&
        !ds_wire::chain_valid(*authority_, instance, m.payload, chain)) {
      continue;
    }
    if (!extracted_[instance].insert(m.payload).second) continue;  // known
    obs::counter(obs::m::protocols_ds_extractions).inc();
    // Newly extracted: relay with our signature appended while relaying is
    // still useful (arrivals after round f+1 are ignored anyway).
    if (round_no <= f_ && should_relay(instance, m.payload)) {
      bool already_signed = false;
      for (const auto& [signer, sig] : chain) {
        already_signed = already_signed || signer == self_;
      }
      if (!already_signed) {
        SigChain extended = chain;
        extended.emplace_back(
            self_, signer_.sign(
                       ds_wire::chain_digest(instance, m.payload, chain)));
        obs::counter(obs::m::protocols_ds_relays).inc();
        const Message relay = ds_wire::encode(instance, m.payload, extended);
        for (ProcessId r = 0; r < n_; ++r) {
          if (r == self_) continue;
          Message copy = relay;
          out.send(r, std::move(copy));
        }
      }
    }
  }

  if (round_no == f_ + 1) {
    resolved_.clear();
    resolved_.reserve(n_);
    for (ProcessId src = 0; src < n_; ++src) {
      // Unique extracted value -> that value; zero or several -> default.
      if (extracted_[src].size() == 1) {
        resolved_.push_back(*extracted_[src].begin());
      } else {
        resolved_.push_back(default_);
      }
    }
    decision_ = decide_(resolved_);
    decided_ = true;
    obs::counter(obs::m::protocols_ds_decides).inc();
    obs::histogram(obs::m::protocols_ds_decide_round)
        .observe(static_cast<double>(round_no));
  }
}

const Vec& DolevStrongProcess::decision() const {
  RBVC_REQUIRE(decided_, "decision(): process has not decided yet");
  return decision_;
}

const std::vector<Vec>& DolevStrongProcess::resolved_inputs() const {
  RBVC_REQUIRE(decided_, "resolved_inputs(): process has not decided yet");
  return resolved_;
}

}  // namespace rbvc::protocols
