#include "consensus/async_averaging.h"

#include <algorithm>

#include "hull/gamma.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace rbvc::consensus {

using protocols::ProcessId;

AsyncAveragingProcess::AsyncAveragingProcess(Params prm, ProcessId self,
                                             Vec input)
    : prm_(prm),
      self_(self),
      input_(std::move(input)),
      rbc_(prm.n, prm.f, self),
      witness_(prm.n, prm.f, self) {
  RBVC_REQUIRE(prm_.rounds >= 1, "async averaging: need rounds >= 1");
  RBVC_REQUIRE(prm_.n >= 3 * prm_.f + 1, "async averaging: need n >= 3f+1");
  history_.push_back(input_);
}

void AsyncAveragingProcess::init(protocols::Outbox& out) {
  rbc_.broadcast(0, input_, out);
}

void AsyncAveragingProcess::on_message(const sim::Message& m,
                                       protocols::Outbox& out) {
  if (protocols::BrachaRbc::is_rbc(m)) {
    for (auto& d : rbc_.on_message(m, out)) {
      PendingDelivery pd;
      pd.value = std::move(d.value);
      pd.view.reserve(d.extra.size());
      bool ok = true;
      for (int id : d.extra) {
        if (id < 0 || static_cast<std::size_t>(id) >= prm_.n) ok = false;
        pd.view.push_back(static_cast<ProcessId>(id));
      }
      if (!ok) {
        reject(d.source, VerifyReject::kBadViewId);
        continue;
      }
      unverified_[d.instance].emplace(d.source, std::move(pd));
    }
    try_verify(out);
    advance(out);
    return;
  }
  if (protocols::WitnessExchange::is_witness(m)) {
    witness_.on_message(m);
    advance(out);
  }
}

std::set<ProcessId> AsyncAveragingProcess::verified_ids(int round) const {
  std::set<ProcessId> ids;
  const auto it = verified_.find(round);
  if (it == verified_.end()) return ids;
  for (const auto& [src, v] : it->second) ids.insert(src);
  return ids;
}

std::vector<Vec> AsyncAveragingProcess::values_for(
    int round, const std::vector<ProcessId>& ids) const {
  std::vector<Vec> out;
  const auto it = verified_.find(round);
  RBVC_REQUIRE(it != verified_.end(), "values_for: unknown round");
  out.reserve(ids.size());
  for (ProcessId id : ids) {
    out.push_back(it->second.at(id));
  }
  return out;
}

Vec AsyncAveragingProcess::rule_value(
    const std::vector<Vec>& view_values) const {
  // Verification recomputes rule values on other processes (possibly other
  // threads); the geometry entry points keep no state between calls, so
  // both computations match bit-for-bit.
  switch (prm_.rule) {
    case Round0Rule::kExactGamma: {
      auto g = gamma_point(view_values, prm_.f, prm_.tol);
      if (!g) {
        throw numerical_error("async exact baseline: Gamma(view) empty");
      }
      return *g;
    }
    case Round0Rule::kRelaxedL2:
      return delta_star_2(view_values, prm_.f, prm_.tol).point;
    case Round0Rule::kRelaxedLinf:
      return delta_star_linear(view_values, prm_.f, kInfNorm, prm_.tol).point;
  }
  throw invalid_argument("unknown round-0 rule");
}

Vec AsyncAveragingProcess::mean_value(
    const std::vector<Vec>& view_values) const {
  return mean(view_values);
}

void AsyncAveragingProcess::reject(ProcessId from, VerifyReject why) {
  ++rejected_;
  // Minted at the first rejection of each reason, so runs without
  // rejections keep their registry key set.
  obs::counter(obs::m::verify_rejects, static_cast<std::size_t>(why)).inc();
  obs::events::emit(obs::events::Type::kVerifyReject, -1,
                    static_cast<std::int64_t>(from),
                    static_cast<std::int64_t>(why));
}

bool AsyncAveragingProcess::verify_one(int round, ProcessId src,
                                       const PendingDelivery& pd) {
  // Round-0 values are inputs: nothing to verify.
  if (round == 0) {
    verified_[0][src] = pd.value;
    return true;
  }
  // Structural checks on the view (reject outright when malformed).
  if (pd.view.size() < quorum() ||
      !std::is_sorted(pd.view.begin(), pd.view.end()) ||
      std::adjacent_find(pd.view.begin(), pd.view.end()) != pd.view.end()) {
    reject(src, VerifyReject::kMalformedView);
    unverified_[round].erase(src);
    return false;
  }
  // All prerequisite values must be verified at this process first.
  const auto& prev = verified_[round - 1];
  for (ProcessId id : pd.view) {
    if (!prev.count(id)) return false;  // stay pending
  }
  const std::vector<Vec> base = values_for(round - 1, pd.view);
  Vec expect;
  try {
    expect = (round == 1) ? rule_value(base) : mean_value(base);
  } catch (const numerical_error&) {
    // The claimed view makes the deterministic rule fail -> invalid value.
    reject(src, VerifyReject::kRuleThrew);
    unverified_[round].erase(src);
    return false;
  }
  if (!approx_equal(expect, pd.value, 1e-7)) {
    reject(src, VerifyReject::kValueMismatch);
    unverified_[round].erase(src);
    return false;
  }
  verified_[round][src] = pd.value;
  unverified_[round].erase(src);
  return true;
}

void AsyncAveragingProcess::try_verify(protocols::Outbox&) {
  // Verification of round t can unblock round t+1; sweep until stable.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [round, pending] : unverified_) {
      // Collect candidates first: verify_one mutates the pending map.
      std::vector<ProcessId> srcs;
      srcs.reserve(pending.size());
      for (const auto& [src, pd] : pending) srcs.push_back(src);
      for (ProcessId src : srcs) {
        const auto it = pending.find(src);
        if (it == pending.end()) continue;
        const PendingDelivery pd = it->second;
        if (verified_[round].count(src)) {
          pending.erase(src);
          continue;
        }
        if (verify_one(round, src, pd)) progress = true;
      }
    }
  }
}

void AsyncAveragingProcess::advance(protocols::Outbox& out) {
  while (!decided_) {
    const auto ids = verified_ids(cur_);
    if (ids.size() < quorum()) return;
    if (prm_.use_witness) {
      if (!reported_cur_) {
        witness_.send_report(cur_, ids, out);
        reported_cur_ = true;
      }
      if (!witness_.ready(cur_, ids)) return;
    }

    // Compute the next value from the current verified view.
    std::vector<ProcessId> view(ids.begin(), ids.end());
    const std::vector<Vec> base = values_for(cur_, view);
    Vec next;
    try {
      next = (cur_ == 0) ? rule_value(base) : mean_value(base);
    } catch (const numerical_error&) {
      failed_ = true;   // exact baseline below its n bound
      decided_ = true;
      return;
    }
    if (cur_ == 0 && prm_.rule != Round0Rule::kExactGamma) {
      round0_delta_ = gamma_excess(
          next, base, prm_.f,
          prm_.rule == Round0Rule::kRelaxedL2 ? 2.0 : kInfNorm, prm_.tol);
    }
    history_.push_back(next);

    if (static_cast<std::size_t>(cur_) == prm_.rounds) {
      decision_ = next;
      decided_ = true;
      return;
    }
    ++cur_;
    reported_cur_ = false;
    std::vector<int> extra;
    extra.reserve(view.size());
    for (ProcessId id : view) extra.push_back(static_cast<int>(id));
    rbc_.broadcast(cur_, next, out, extra);
  }
}

const Vec& AsyncAveragingProcess::decision() const {
  RBVC_REQUIRE(decided_ && !failed_, "decision(): not decided (or failed)");
  return decision_;
}

}  // namespace rbvc::consensus
