// Negative-path tests for the "Verified" part of Relaxed Verified
// Averaging: a Byzantine process that reliably-broadcasts a round-1 value
// NOT matching the deterministic rule applied to its declared view must be
// rejected by every correct process -- its only remaining freedoms are its
// round-0 input and its view selection.
#include <gtest/gtest.h>

#include "consensus/async_averaging.h"
#include "consensus/verifier.h"
#include "obs/metrics.h"
#include "protocols/bracha_rbc.h"
#include "sim/async_engine.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

using consensus::AsyncAveragingProcess;
using consensus::VerifyReject;

// consensus.verify_rejects.<reason>, one entry per VerifyReject.
std::vector<std::uint64_t> verify_rejects() {
  std::vector<std::uint64_t> out;
  for (VerifyReject why :
       {VerifyReject::kBadViewId, VerifyReject::kMalformedView,
        VerifyReject::kRuleThrew, VerifyReject::kValueMismatch}) {
    out.push_back(
        obs::counter(obs::m::verify_rejects, static_cast<std::size_t>(why))
            .value());
  }
  return out;
}

// The growth of each reason's counter since `before`.
std::vector<std::uint64_t> verify_rejects_since(
    const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out = verify_rejects();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= before[i];
  return out;
}

// Broadcasts an honest round-0 input, then forges its round-1 value: a
// far-away vector with a structurally valid view attached.
class ForgingAsyncProcess final : public sim::AsyncProcess {
 public:
  ForgingAsyncProcess(std::size_t n, std::size_t f, sim::ProcessId self,
                      Vec input, Vec forged)
      : n_(n), f_(f), rbc_(n, f, self), input_(std::move(input)),
        forged_(std::move(forged)) {}

  void init(sim::Outbox& out) override { rbc_.broadcast(0, input_, out); }

  void on_message(const sim::Message& m, sim::Outbox& out) override {
    if (!protocols::BrachaRbc::is_rbc(m)) return;
    for (const auto& d : rbc_.on_message(m, out)) {
      if (d.instance != 0) continue;
      seen_.insert(static_cast<int>(d.source));
      if (!sent_forgery_ && seen_.size() >= n_ - f_) {
        sent_forgery_ = true;
        // Structurally valid view (sorted, >= n-f entries) but a value that
        // no deterministic recomputation will reproduce.
        std::vector<int> view(seen_.begin(), seen_.end());
        rbc_.broadcast(1, forged_, out, view);
      }
    }
  }

  bool decided() const override { return true; }

 private:
  std::size_t n_, f_;
  protocols::BrachaRbc rbc_;
  Vec input_, forged_;
  std::set<int> seen_;
  bool sent_forgery_ = false;
};

TEST(VerifiedAveragingSecurity, ForgedRound1ValueIsRejected) {
  const std::size_t n = 4, f = 1, d = 3;
  Rng rng(1103);
  AsyncAveragingProcess::Params prm;
  prm.n = n;
  prm.f = f;
  prm.rounds = 6;

  sim::AsyncEngine engine(std::make_unique<sim::RandomScheduler>(9));
  std::vector<Vec> honest_inputs;
  std::vector<sim::ProcessId> correct;
  for (std::size_t id = 0; id < n; ++id) {
    if (id == 1) {
      engine.add(std::make_unique<ForgingAsyncProcess>(
          n, f, id, rng.normal_vec(d), Vec(d, 1e6)));
    } else {
      honest_inputs.push_back(rng.normal_vec(d));
      engine.add(std::make_unique<AsyncAveragingProcess>(
          prm, id, honest_inputs.back()));
      correct.push_back(id);
    }
  }
  const std::vector<std::uint64_t> counted0 = verify_rejects();
  const auto stats = engine.run(correct, 2'000'000);
  ASSERT_TRUE(stats.all_decided);

  std::vector<Vec> decisions;
  std::size_t total_rejections = 0;
  for (auto id : correct) {
    auto& p = dynamic_cast<AsyncAveragingProcess&>(engine.process(id));
    ASSERT_FALSE(p.failed());
    decisions.push_back(p.decision());
    total_rejections += p.rejected();
  }
  // The forged value must have been rejected somewhere (every correct
  // process that completed its verification saw the mismatch).
  EXPECT_GT(total_rejections, 0u);
  // Every rejection is counted, as a value mismatch.
  EXPECT_EQ(verify_rejects_since(counted0),
            (std::vector<std::uint64_t>{0, 0, 0, total_rejections}));
  // And it must not have influenced the outcome: decisions stay within the
  // honest spread despite the 1e6-magnitude forgery.
  EXPECT_TRUE(check_epsilon_agreement(decisions, 0.2));
  EXPECT_LT(delta_p_validity_excess(
                decisions, honest_inputs,
                input_dependent_delta(honest_inputs, 1.0), 2.0),
            1e-4);
}

TEST(VerifiedAveragingSecurity, MalformedViewIsRejectedOutright) {
  // Unsorted / undersized views are structurally invalid: rejected without
  // waiting for prerequisites.
  const std::size_t n = 4, f = 1, d = 2;

  class MalformedViewProcess final : public sim::AsyncProcess {
   public:
    MalformedViewProcess(std::size_t n, std::size_t f, sim::ProcessId self)
        : rbc_(n, f, self) {}
    void init(sim::Outbox& out) override {
      rbc_.broadcast(0, {0.0, 0.0}, out);
      rbc_.broadcast(1, {5.0, 5.0}, out, {2, 0, 1});  // unsorted view
      rbc_.broadcast(2, {6.0, 6.0}, out, {0});        // too small
    }
    void on_message(const sim::Message& m, sim::Outbox& out) override {
      rbc_.on_message(m, out);
    }
    bool decided() const override { return true; }
    protocols::BrachaRbc rbc_;
  };

  AsyncAveragingProcess::Params prm;
  prm.n = n;
  prm.f = f;
  prm.rounds = 3;
  Rng rng(1109);
  sim::AsyncEngine engine(std::make_unique<sim::RandomScheduler>(10));
  std::vector<sim::ProcessId> correct;
  for (std::size_t id = 0; id < n; ++id) {
    if (id == 0) {
      engine.add(std::make_unique<MalformedViewProcess>(n, f, id));
    } else {
      engine.add(std::make_unique<AsyncAveragingProcess>(
          prm, id, rng.normal_vec(d)));
      correct.push_back(id);
    }
  }
  const std::vector<std::uint64_t> counted0 = verify_rejects();
  const auto stats = engine.run(correct, 1'000'000);
  ASSERT_TRUE(stats.all_decided);
  std::size_t rejections = 0;
  for (auto id : correct) {
    rejections += dynamic_cast<AsyncAveragingProcess&>(engine.process(id))
                      .rejected();
  }
  EXPECT_GT(rejections, 0u);
  // Every rejection is counted, as a malformed view.
  EXPECT_EQ(verify_rejects_since(counted0),
            (std::vector<std::uint64_t>{0, rejections, 0, 0}));
}

}  // namespace
}  // namespace rbvc
