#include "consensus/exact_bvc.h"

#include "hull/gamma.h"

namespace rbvc::consensus {

protocols::DecisionFn exact_bvc_decision(std::size_t f, double tol) {
  return [f, tol](const std::vector<Vec>& s) -> Vec {
    auto p = gamma_point(s, f, tol);
    if (!p) {
      throw infeasible_instance(
          "exact BVC: Gamma(S) is empty (n <= (d+1)f for this input)");
    }
    return *p;
  };
}

}  // namespace rbvc::consensus
