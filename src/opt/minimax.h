// Numerical solver for the general-p min-max hull-distance problem of
// Theorem 14 (paper Sec. 9):
//
//     delta*_p = min_{x in R^d}  max_i  dist_p(x, H(S_i))
//
// The objective is convex; we run a Badoiu-Clarkson style iteration (move
// toward the projection onto the currently-farthest hull with a 1/(k+2)
// schedule) followed by subgradient polishing. The result is an upper bound
// within the iteration budget, with no certificate. In the library only
// delta_star_p calls it, for finite p other than 1 and 2: p = 2 runs the
// certified cutting-plane solver (opt/outer_approx.h). Exact closed forms
// (simplex inradius) cross-check this path in tests.
#pragma once

#include <vector>

#include "geometry/distance.h"

namespace rbvc {

struct MinimaxOptions {
  std::size_t iters = 4'000;       // main schedule length
  std::size_t polish_iters = 500;  // Polyak subgradient polishing steps
  double tol = kTol;
  double p = 2.0;  // norm for the hull distances (2 exact; others iterative)
};

struct MinimaxResult {
  double value = 0.0;   // best max-distance found (upper bound on delta*)
  Vec point;            // the minimizing point found
  std::size_t evals = 0;  // hull-projection evaluations performed
};

/// Minimizes max_i dist_2(p, H(sets[i])) starting from `init`. The PointView
/// overload lets the delta* path pass drop-f index views without
/// materializing each subset.
MinimaxResult min_max_hull_distance(const std::vector<PointView>& sets,
                                    Vec init, const MinimaxOptions& opts = {});
MinimaxResult min_max_hull_distance(const std::vector<std::vector<Vec>>& sets,
                                    Vec init, const MinimaxOptions& opts = {});

}  // namespace rbvc
