// ALGO (paper Sec. 9): the input-dependent (delta,p)-relaxed exact BVC
// algorithm that works with only n >= 3f + 1 processes.
//
//   Step 1: Byzantine-broadcast every input (interactive consistency).
//   Step 2: with the agreed multiset S, find the smallest delta for which
//           Gamma_(delta,p)(S) is non-empty and deterministically pick a
//           point of it (for p = 2: the simplex incenter when S is a full
//           simplex with f = 1, an LP point when Gamma(S) is non-empty, the
//           witness of the certified cutting-plane solver otherwise).
//
// Theorems 9 and 12 bound the resulting delta by the honest-edge lengths;
// the verifier recomputes the achieved delta to check those bounds.
#pragma once

#include "hull/delta_star.h"
#include "protocols/om_broadcast.h"

namespace rbvc::consensus {

/// Decision rule implementing ALGO Step 2 under the L2 norm.
protocols::DecisionFn algo_decision(std::size_t f, double tol = kTol);

/// ALGO Step 2 under L1 / Linf (one exact LP).
protocols::DecisionFn algo_decision_linear(std::size_t f, double p,
                                           double tol = kTol);

/// Convenience process: a correct ALGO participant.
class AlgoProcess final : public protocols::EigConsensusProcess {
 public:
  AlgoProcess(std::size_t n, std::size_t f, protocols::ProcessId self,
              Vec input, Vec default_value)
      : EigConsensusProcess(n, f, self, std::move(input),
                            std::move(default_value), algo_decision(f)) {}
};

}  // namespace rbvc::consensus
