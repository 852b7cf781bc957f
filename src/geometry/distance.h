// Point-to-convex-hull distances and projections in Lp norms.
//
//   p = 2        -> Wolfe's min-norm-point algorithm (exact up to tolerance)
//   p = 1, inf   -> exact linear programs
//   other p >= 1 -> cutting planes pinned at u (opt/outer_approx.h): the
//                   upper end of a certified interval
//
// These back the (delta,p)-relaxed hull membership tests of paper Sec. 5.2
// and the delta* computations of Sec. 9. Point sets are taken by PointView
// (plain vector<Vec> converts implicitly), so drop-f subset queries avoid
// materializing each subset.
#pragma once

#include <vector>

#include "geometry/point_view.h"

namespace rbvc {

/// Result of projecting a point onto a convex hull.
struct HullProjection {
  double distance = 0.0;  // ||u - point||_p
  Vec point;              // nearest hull point (general p: best iterate's)
  Vec coeffs;             // barycentric coefficients of `point` over S
};

/// Euclidean projection of u onto H(pts) via Wolfe's algorithm.
HullProjection project_to_hull(const Vec& u, PointView pts, double tol = kTol);

/// Lp projection of u onto H(pts): exact for p in {1, 2, inf} (LP / Wolfe),
/// the upper end of a certified interval for other p >= 1.
HullProjection project_to_hull_p(const Vec& u, PointView pts, double p,
                                 double tol = kTol);

/// Lp distance from u to H(pts) (see project_to_hull_p for exactness).
double distance_to_hull(const Vec& u, PointView pts, double p,
                        double tol = kTol);

/// Internal entry points, exposed for tests and the ablation bench (E14).
namespace detail {
HullProjection wolfe_min_norm(const Vec& u, PointView pts, double tol);
/// p in {1, inf}: one LP over (lambda, residual bounds), solved cold.
HullProjection lp_projection_via_lp(const Vec& u, PointView pts, double p,
                                    double tol);
}  // namespace detail

}  // namespace rbvc
