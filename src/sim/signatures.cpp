#include "sim/signatures.h"

#include <cstring>

#include "obs/metrics.h"

namespace rbvc::sim {

namespace {
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v, then an avalanche (splitmix finalizer).
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  std::uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

void Digest::absorb(std::uint64_t v) { state_ = mix(state_, v); }

void Digest::absorb(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  absorb(bits);
}

void Digest::absorb(const Vec& v) {
  absorb(static_cast<std::uint64_t>(v.size()));
  for (double x : v) absorb(x);
}

void Digest::absorb(const std::vector<int>& v) {
  absorb(static_cast<std::uint64_t>(v.size()));
  for (int x : v) absorb(x);
}

Signature Signer::sign(std::uint64_t digest) const {
  return authority_->compute(id_, digest);
}

SignatureAuthority::SignatureAuthority(std::uint64_t secret_seed)
    : secret_(mix(0x9E3779B97F4A7C15ULL, secret_seed)) {}

Signature SignatureAuthority::compute(ProcessId id,
                                      std::uint64_t digest) const {
  return mix(mix(secret_, static_cast<std::uint64_t>(id)), digest);
}

bool SignatureAuthority::verify(ProcessId id, std::uint64_t digest,
                                Signature sig) const {
  obs::counter(obs::m::sim_signature_checks).inc();
  return compute(id, digest) == sig;
}

}  // namespace rbvc::sim
