#include "geometry/distance.h"

#include <algorithm>

#include "lp/model.h"
#include "opt/outer_approx.h"

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
  RBVC_REQUIRE(!pts.empty(), "project_to_hull_p: empty point set");
  // The cutting-plane loop with x pinned at u, started at the barycentre.
  OuterApproxResult oa = certified_min_max_hull_distance_p(
      {pts}, p, u, {Vec(pts.size(), 1.0 / static_cast<double>(pts.size()))},
      tol, /*pinned=*/true);
  return detail::projection_from_coeffs(u, pts, std::move(oa.coeffs[0]), p);
}

double distance_to_hull(const Vec& u, PointView pts, double p, double tol) {
  return project_to_hull_p(u, pts, p, tol).distance;
}

}  // namespace rbvc
