#include "consensus/algo_relaxed.h"

namespace rbvc::consensus {

protocols::DecisionFn algo_decision(std::size_t f, double tol) {
  return [f, tol](const std::vector<Vec>& s) -> Vec {
    return delta_star_2(s, f, tol).point;
  };
}

protocols::DecisionFn algo_decision_linear(std::size_t f, double p,
                                           double tol) {
  return [f, p, tol](const std::vector<Vec>& s) -> Vec {
    return delta_star_linear(s, f, p, tol).point;
  };
}

}  // namespace rbvc::consensus
