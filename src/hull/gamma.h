// The Gamma operators (paper Sec. 3 and Sec. 9):
//
//   Gamma(Y)          = intersection over |T| = |Y|-f of H(T)
//   Gamma_(delta,p)(Y) = intersection over |T| = |Y|-f of H_(delta,p)(T)
//
// Gamma(Y) is the classic Byzantine "safe area" (non-empty whenever
// |Y| >= (d+1)f + 1 by Tverberg); the (delta,p) variant is what ALGO
// (Sec. 9) intersects after relaxation.
//
// Every LP here is solved cold and nothing but the drop-f index memo
// (drop_f_views) outlives a call, so results are a pure function of the
// arguments.
//
// For p in {1, inf} every constraint dist_p(x, H(T)) <= delta is linear in
// (x, delta), so Gamma_(delta,p)(Y) is the projection of one polyhedron:
// the intersection-of-hulls LP of Vaidya & Garg with one
// detail::add_delta_p_membership block per subset. That single encoding
// serves both the fixed-delta membership query below and delta*_p
// (delta_star.h), which makes delta a column and minimizes it.
#pragma once

#include <optional>

#include "hull/relaxed_hull.h"
#include "lp/model.h"

namespace rbvc {

/// A point of Gamma(Y) (deterministic for fixed input), or nullopt when the
/// intersection is empty.
std::optional<Vec> gamma_point(const std::vector<Vec>& y, std::size_t f,
                               double tol = kTol);

/// A point of Gamma_(delta,p)(Y) for p = 1 or p = inf (exact, via LP), or
/// nullopt when empty.
std::optional<Vec> gamma_delta_point_linear(const std::vector<Vec>& y,
                                            std::size_t f, double delta,
                                            double p, double tol = kTol);

/// max_i dist_p(u, H(T_i)) over the size-(|Y|-f) sub-multisets: u lies in
/// Gamma_(delta,p)(Y) iff this is <= delta. For p in {1, inf} each subset
/// distance is its own cold LP.
double gamma_excess(const Vec& u, const std::vector<Vec>& y, std::size_t f,
                    double p, double tol = kTol);

namespace detail {

/// A point x of Gamma_(delta,p)(Y) for p in {1, inf} and its delta.
struct GammaDeltaLpPoint {
  Vec x;
  double delta = 0.0;
};

/// Solves the Gamma_(delta,p)(Y) LP cold. With `delta` given it bounds the
/// residual norms (membership; nullopt when empty). Without it, delta is a
/// nonnegative column with objective 1, so the optimum is delta*_p(Y) and x
/// a point of Gamma_(delta*,p)(Y); that LP is always feasible (the mean
/// with a large delta) and bounded below by 0. Any other non-optimal status
/// (iteration limit) throws numerical_error.
std::optional<GammaDeltaLpPoint> solve_gamma_delta_lp(
    const std::vector<Vec>& y, std::size_t f, double p,
    std::optional<double> delta, double tol);

}  // namespace detail

}  // namespace rbvc
