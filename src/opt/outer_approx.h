// Certified solver for the Euclidean min-max hull-distance problem behind
// ALGO's Step 2 and the Relaxed Verified Averaging round-0 rule (paper
// Secs. 9-10):
//
//     delta* = min_{x in R^d}  max_i  dist_2(x, H(S_i))
//
// Kelley's cutting-plane (outer-approximation) method over (x, t): minimize
// t subject to cuts  t >= u . x - sigma_i(u), one per projection of an
// iterate onto a hull H(S_i) farther away than the current lower bound,
// where u is the unit vector from the projection to the iterate and
// sigma_i is the support function of H(S_i). Every cut is valid for any
// unit u, so the master LP's optimum is a certified lower bound; the best
// iterate's max distance is the upper bound, and that iterate is the
// witness. x is confined to the coordinate box of the union of the sets,
// which holds a minimizer: projecting onto the hull of the union shortens
// the distance to every H(S_i).
//
// Each round cold-solves the master (one lp::Model gaining rows); there is
// no warm start, no cut selection and no cut pruning, and no state outlives
// a call. Every master answer is checked against the master's rows: late
// in the loop nearly parallel cuts make the master ill-conditioned, and the
// simplex can then return a drifted, infeasible "optimum". Such an answer
// does not move the lower bound, but the loop goes on from its point.
#pragma once

#include <vector>

#include "geometry/distance.h"

namespace rbvc {

struct OuterApproxResult {
  double lower = 0.0;      // certified lower bound on delta*
  double upper = 0.0;      // max_i dist_2(point, H(S_i)) >= delta*
  Vec point;               // best iterate found: the witness of `upper`
  std::size_t rounds = 0;  // master LP solves
  std::size_t cuts = 0;    // cut rows added to the master
  bool closed = false;     // upper - lower <= tol * max(1, diam of the union)
};

/// Brackets min_x max_i dist_2(x, H(sets[i])) starting from `init` (the
/// first iterate). Stops once the gap closes, at a fixed cap on rounds or on
/// cut rows, or when the master LP stops short of an optimum; the last
/// three return the interval found so far with `closed` false. Never throws
/// for non-empty sets of finite points sharing one dimension.
OuterApproxResult certified_min_max_hull_distance(
    const std::vector<PointView>& sets, Vec init, double tol = kTol);

}  // namespace rbvc
