// Certified solvers for the min-max hull-distance problem behind ALGO's
// Step 2, the Relaxed Verified Averaging round-0 rule and Theorem 14 (paper
// Secs. 9-10):
//
//     delta*_p = min_{x in R^d}  max_i  dist_p(x, H(S_i))
//
// Kelley's cutting-plane (outer-approximation) method: minimize t over a
// master LP, adding a cut for every hull farther from the master's answer
// than the lower bound. Every cut is valid, so the master's optimum is a
// certified lower bound; the best iterate's max distance is the upper bound
// and that iterate the witness. x stays in the coordinate box of the union,
// which holds a minimizer for every p: clamping x into it shortens every
// coordinate of x - y for any y in any H(S_i).
//
// p = 2: the master is over (x, t), each cut  t >= u . x - sigma_i(u)  from
// a Wolfe projection (u the unit vector from it to the iterate, sigma_i the
// support function). Any finite p: the master is the epigraph over (x, t,
// lambda_i in the simplex per set), each cut  t >= g . (x - V_i lambda_i)
// a tangent of ||.||_p at the residual; ||g||_q = 1 makes it valid
// (Hoelder).
//
// One loop serves both: a cold master solve per round (no warm start, cut
// selection or pruning; no state outlives a call), stopping when the gap
// closes to tol * max(1, diam), or with the interval so far at 64 rounds,
// 512 cut rows or a non-optimal master. Nearly parallel cuts can make the
// simplex return a drifted, infeasible "optimum", so every answer is checked
// against the master's rows (lp::Model::satisfies); one that fails is
// counted and moves no bound, and the loop goes on from its point.
#pragma once

#include <vector>

#include "geometry/distance.h"

namespace rbvc {

struct OuterApproxResult {
  double lower = 0.0;      // certified lower bound on delta*
  double upper = 0.0;      // max distance at the witness, >= delta*
  Vec point;               // best iterate found: the witness of `upper`
  std::vector<Vec> coeffs;   // general p: the witness's lambda_i per set
  std::size_t rounds = 0;    // master LP solves
  std::size_t cuts = 0;      // cut rows added to the master
  std::size_t rejected = 0;  // master answers that violated its rows
  bool closed = false;       // upper - lower <= tol * max(1, diam)
};

/// Brackets min_x max_i dist_2(x, H(sets[i])) starting from `init`, with
/// diam the diameter of the union. Never throws for non-empty sets of
/// finite points sharing one dimension.
OuterApproxResult certified_min_max_hull_distance(
    const std::vector<PointView>& sets, Vec init, double tol = kTol);

/// Brackets min_x max_i dist_p(x, H(sets[i])) for finite p >= 1, starting
/// from x = init with init_coeffs[i] as the weights over sets[i];
/// upper = max_i ||point - V_i coeffs[i]||_p. With `pinned`, x stays at
/// init, so one set gives the Lp distance from init to its hull. diam is
/// taken over the points and the box. Never throws for non-empty sets of
/// finite points sharing one dimension.
OuterApproxResult certified_min_max_hull_distance_p(
    const std::vector<PointView>& sets, double p, Vec init,
    std::vector<Vec> init_coeffs, double tol = kTol, bool pinned = false);

}  // namespace rbvc
