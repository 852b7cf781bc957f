// Two-phase primal simplex for dense standard-form linear programs:
//
//     minimize    c . x
//     subject to  A x = b,  x >= 0.
//
// Phase 1 introduces artificial variables to find a basic feasible point
// (detecting infeasibility), then drives artificials out of the basis and
// deletes redundant rows; phase 2 optimizes. Dantzig pricing with an
// automatic switch to Bland's rule guards against cycling. All geometry
// feasibility questions in rbvc (hull membership, Gamma/Psi intersections,
// L1/Linf distances) reduce to this solver via lp::Model, and every solve
// is cold: no tableau or basis survives a call.
#pragma once

#include "linalg/matrix.h"

namespace rbvc::lp {

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
};

const char* to_string(Status s);

struct SimplexOptions {
  double tol = 1e-9;           // pivot / reduced-cost tolerance
  std::size_t max_iters = 50'000;
};

struct Solution {
  Status status = Status::kIterLimit;
  double objective = 0.0;
  Vec x;  // primal values for the original variables (empty unless optimal)
};

/// Solves the standard-form LP above. A is m-by-n, b is m, c is n.
Solution solve_standard(const Matrix& a, const Vec& b, const Vec& c,
                        const SimplexOptions& opts = {});

}  // namespace rbvc::lp
