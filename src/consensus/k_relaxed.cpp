#include "consensus/k_relaxed.h"

#include "consensus/exact_bvc.h"
#include "hull/gamma.h"
#include "hull/psi.h"
#include "protocols/scalar_consensus.h"

namespace rbvc::consensus {

protocols::DecisionFn k_relaxed_decision(std::size_t f, std::size_t k,
                                         double tol) {
  RBVC_REQUIRE(k >= 1, "k_relaxed_decision: k must be >= 1");
  if (k == 1) {
    return [](const std::vector<Vec>& s) -> Vec {
      return protocols::coordinatewise_median(s);
    };
  }
  return [f, k, tol](const std::vector<Vec>& s) -> Vec {
    // Gamma(S) is a subset of Psi_k(S): prefer it (it certifies the
    // stronger, exact validity) and fall back to the relaxed set.
    if (auto g = gamma_point(s, f, tol)) return *g;
    if (auto p = psi_k_point(s, f, k, tol)) return *p;
    throw infeasible_instance(
        "k-relaxed BVC: Psi_k(S) is empty (n below the (d+1)f+1 bound)");
  };
}

}  // namespace rbvc::consensus
