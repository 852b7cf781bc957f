// Relaxed Verified Averaging (paper Sec. 10) and the exact-safe-area
// asynchronous baseline, over Bracha RBC + witness exchange.
//
// Round structure (per correct process):
//   init     : reliably broadcast the input as the round-0 value.
//   round t  : collect verified round-t values until n-f of them are held
//              AND n-f witnesses confirm a common core, then compute the
//              round-(t+1) value:
//                t = 0 : the paper's H_(delta,p)(V,0) rule -- a point of
//                        the smallest non-empty Gamma_(delta,p) of the view
//                        (kRelaxedL2 / kRelaxedLinf), or a Gamma(view) point
//                        (kExactGamma baseline, needs n >= (d+2)f+1);
//                t >= 1: the mean of the verified view (paper's step 3).
//              The value is broadcast together with its *view* (the source
//              ids it was computed from).
//   decide   : after `rounds` averaging rounds, output the final mean.
//
// Verification (the "Verified" in Verified Averaging [15], reproduced by
// recomputation): a received round-(t+1) value is accepted only once the
// receiver holds all round-t values named in its view and the value equals
// the deterministic rule applied to that view. A Byzantine process's only
// freedom beyond its round-0 input is thus *which* legal view it uses --
// exactly the property the paper's Theorem 15 proof relies on (every
// verified value lies in Gamma_(delta,p) of a legal view, hence within
// delta of the honest inputs' hull).
#pragma once

#include <map>
#include <set>

#include "hull/delta_star.h"
#include "protocols/bracha_rbc.h"
#include "protocols/witness.h"

namespace rbvc::consensus {

class AsyncAveragingProcess : public sim::AsyncProcess {
 public:
  enum class Round0Rule {
    kExactGamma,   // baseline: point of Gamma(view); fails when empty
    kRelaxedL2,    // ALGO-style: delta*_2 point (Relaxed Verified Averaging)
    kRelaxedLinf,  // delta*_inf point (LP-certified)
  };

  struct Params {
    std::size_t n = 0;
    std::size_t f = 0;
    std::size_t rounds = 8;  // averaging rounds R >= 1
    Round0Rule rule = Round0Rule::kRelaxedL2;
    // Ablation toggle: when false, a process advances as soon as it holds
    // n-f verified values, WITHOUT waiting for the witness common core.
    // Convergence can then stall or slow because two correct processes may
    // share as few as n-2f values per round (see bench_async_averaging).
    bool use_witness = true;
    // Test-only fault injection for the record/replay/shrink harness: when
    // nonzero, processes advance on (and accept views of) this many values
    // instead of n-f. Any value below n-f breaks the overlap property that
    // agreement rests on, planting a real, schedule-dependent bug for the
    // harness to find and minimize. Production runs leave it 0.
    std::size_t quorum_override = 0;
    double tol = kTol;
    // Unused by every round-0 rule: kRelaxedL2 runs delta_star_2's
    // certified cutting-plane solver, which has no iteration budget. Kept
    // so repro files keep their `minimax` line and older repros load.
    MinimaxOptions minimax{600, 200, kTol, 2.0};
  };

  AsyncAveragingProcess(Params prm, protocols::ProcessId self, Vec input);

  void init(protocols::Outbox& out) override;
  void on_message(const sim::Message& m, protocols::Outbox& out) override;
  bool decided() const override { return decided_; }

  const Vec& decision() const;
  bool failed() const { return failed_; }
  /// The delta chosen by the round-0 rule (0 for the exact baseline).
  double round0_delta() const { return round0_delta_; }
  /// This process's value at the start of each round (h[0] = input, ...).
  const std::vector<Vec>& history() const { return history_; }
  /// Deliveries whose verification failed outright (Byzantine evidence).
  std::size_t rejected() const { return rejected_; }

 private:
  struct PendingDelivery {
    Vec value;
    std::vector<protocols::ProcessId> view;
  };

  std::size_t quorum() const {
    return prm_.quorum_override ? prm_.quorum_override : prm_.n - prm_.f;
  }
  void advance(protocols::Outbox& out);
  void try_verify(protocols::Outbox& out);
  bool verify_one(int round, protocols::ProcessId src,
                  const PendingDelivery& pd);
  Vec rule_value(const std::vector<Vec>& view_values) const;
  Vec mean_value(const std::vector<Vec>& view_values) const;
  std::set<protocols::ProcessId> verified_ids(int round) const;
  std::vector<Vec> values_for(
      int round, const std::vector<protocols::ProcessId>& ids) const;

  Params prm_;
  protocols::ProcessId self_;
  Vec input_;
  protocols::BrachaRbc rbc_;
  protocols::WitnessExchange witness_;

  // verified_[t][src] = accepted round-t value.
  std::map<int, std::map<protocols::ProcessId, Vec>> verified_;
  // unverified_[t][src] = delivered but not yet verifiable.
  std::map<int, std::map<protocols::ProcessId, PendingDelivery>> unverified_;

  int cur_ = 0;
  bool reported_cur_ = false;
  std::vector<Vec> history_;
  Vec decision_;
  bool decided_ = false;
  bool failed_ = false;
  double round0_delta_ = 0.0;
  std::size_t rejected_ = 0;
};

}  // namespace rbvc::consensus
