#include "geometry/distance.h"

#include <algorithm>
#include <cmath>

#include "lp/model.h"

namespace rbvc {

namespace detail {

namespace {
HullProjection projection_from_coeffs(const Vec& u, PointView pts, Vec coeffs,
                                      double p) {
  HullProjection out;
  out.point = zeros(u.size());
  for (std::size_t j = 0; j < pts.size(); ++j) {
    axpy(coeffs[j], pts[j], out.point);
  }
  out.distance = lp_dist(u, out.point, p);
  out.coeffs = std::move(coeffs);
  return out;
}
}  // namespace

HullProjection lp_projection_via_lp(const Vec& u, PointView pts, double p,
                                    double tol) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "lp_projection_via_lp: only L1 and Linf are linear");
  RBVC_REQUIRE(!pts.empty(), "lp_projection_via_lp: empty point set");
  const std::size_t d = u.size();
  lp::Model m;
  const auto lambda0 = m.add_vars(pts.size());
  // Residual magnitude variables: one shared bound t for Linf, d bounds for L1.
  const bool linf = p >= kInfNorm;
  const auto t0 = linf ? m.add_var(1.0) : m.add_vars(d, 1.0);
  // For each coordinate r:  -t_r <= u[r] - sum_j lambda_j pts[j][r] <= t_r.
  for (std::size_t r = 0; r < d; ++r) {
    const auto t = linf ? t0 : t0 + r;
    std::vector<lp::Model::Term> lo, hi;
    lo.push_back({t, 1.0});
    hi.push_back({t, 1.0});
    for (std::size_t j = 0; j < pts.size(); ++j) {
      lo.push_back({lambda0 + j, pts[j][r]});
      hi.push_back({lambda0 + j, -pts[j][r]});
    }
    m.add_constraint(lo, lp::Rel::kGe, u[r]);   // t + V_r lambda >= u[r]
    m.add_constraint(hi, lp::Rel::kGe, -u[r]);  // t - V_r lambda >= -u[r]
  }
  std::vector<lp::Model::Term> sum_row;
  for (std::size_t j = 0; j < pts.size(); ++j) sum_row.push_back({lambda0 + j, 1.0});
  m.add_constraint(sum_row, lp::Rel::kEq, 1.0);

  lp::SimplexOptions opts;
  opts.tol = std::min(tol, 1e-8);
  const lp::Solution sol = m.solve(opts);
  RBVC_REQUIRE(sol.status == lp::Status::kOptimal,
               "lp_projection_via_lp: solver failed");
  Vec coeffs(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(pts.size()));
  return projection_from_coeffs(u, pts, std::move(coeffs), p);
}

HullProjection lp_projection_frank_wolfe(const Vec& u, PointView pts, double p,
                                         std::size_t max_iters) {
  RBVC_REQUIRE(p >= 1.0 && p < kInfNorm,
               "frank_wolfe: requires finite p >= 1");
  RBVC_REQUIRE(!pts.empty(), "frank_wolfe: empty point set");
  const std::size_t n = pts.size();
  const std::size_t d = u.size();

  // Minimize f(lambda) = ||u - V lambda||_p^p over the simplex; the p-th
  // power keeps the gradient smooth away from the optimum and the argmin is
  // the same point.
  Vec lambda(n, 1.0 / static_cast<double>(n));
  Vec r(d);
  auto residual = [&]() {
    for (std::size_t k = 0; k < d; ++k) {
      double s = u[k];
      for (std::size_t j = 0; j < n; ++j) s -= lambda[j] * pts[j][k];
      r[k] = s;
    }
  };
  residual();

  for (std::size_t it = 0; it < max_iters; ++it) {
    // grad_j f = -sum_k p |r_k|^{p-1} sign(r_k) pts[j][k]
    Vec g(d);
    for (std::size_t k = 0; k < d; ++k) {
      const double a = std::abs(r[k]);
      g[k] = (a == 0.0) ? 0.0
                        : p * std::pow(a, p - 1.0) * (r[k] > 0 ? 1.0 : -1.0);
    }
    std::size_t best = 0;
    double best_val = kInfNorm;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = -dot(g, pts[j]);  // gradient wrt lambda_j
      if (v < best_val) {
        best_val = v;
        best = j;
      }
    }
    const double gamma = 2.0 / (static_cast<double>(it) + 2.0);
    for (std::size_t j = 0; j < n; ++j) lambda[j] *= (1.0 - gamma);
    lambda[best] += gamma;
    residual();
  }
  return projection_from_coeffs(u, pts, std::move(lambda), p);
}

}  // namespace detail

HullProjection project_to_hull(const Vec& u, PointView pts, double tol) {
  return detail::wolfe_min_norm(u, pts, tol);
}

HullProjection project_to_hull_p(const Vec& u, PointView pts, double p,
                                 double tol) {
  RBVC_REQUIRE(p >= 1.0, "project_to_hull_p: p must be >= 1");
  if (p == 2.0) return detail::wolfe_min_norm(u, pts, tol);
  if (p == 1.0 || p >= kInfNorm) {
    return detail::lp_projection_via_lp(u, pts, p, tol);
  }
  return detail::lp_projection_frank_wolfe(u, pts, p);
}

double distance_to_hull(const Vec& u, PointView pts, double p, double tol) {
  return project_to_hull_p(u, pts, p, tol).distance;
}

}  // namespace rbvc
