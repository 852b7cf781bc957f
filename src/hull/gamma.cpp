#include "hull/gamma.h"

#include <algorithm>
#include <string>

#include "geometry/hull.h"

namespace rbvc {

std::optional<Vec> gamma_point(const std::vector<Vec>& y, std::size_t f,
                               double tol) {
  return hull_intersection_point(drop_f_views(y, f), tol);
}

namespace detail {

std::optional<GammaDeltaLpPoint> solve_gamma_delta_lp(
    const std::vector<Vec>& y, std::size_t f, double p,
    std::optional<double> delta, double tol) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "gamma_delta_point_linear: p must be 1 or inf");
  const std::size_t d = y.front().size();
  lp::Model model;
  const auto u0 = model.add_vars(d, 0.0, /*free=*/true);
  // A pinned delta is the norm rows' right-hand side; a free one is a
  // column moved to their left-hand side.
  std::optional<lp::Model::VarId> delta_col;
  if (!delta) delta_col = model.add_var(1.0);
  for (const PointView& t : drop_f_views(y, f)) {
    add_delta_p_membership(model, u0, t, p, delta.value_or(0.0), delta_col);
  }

  lp::SimplexOptions opts;
  opts.tol = std::min(tol, 1e-8);
  const lp::Solution sol = model.solve(opts);
  if (delta && sol.status == lp::Status::kInfeasible) return std::nullopt;
  if (sol.status != lp::Status::kOptimal) {
    throw numerical_error(std::string("Gamma_delta LP: ") +
                          lp::to_string(sol.status));
  }
  GammaDeltaLpPoint out;
  out.x.assign(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d));
  out.delta = delta ? *delta : std::max(0.0, sol.x[*delta_col]);
  return out;
}

}  // namespace detail

std::optional<Vec> gamma_delta_point_linear(const std::vector<Vec>& y,
                                            std::size_t f, double delta,
                                            double p, double tol) {
  RBVC_REQUIRE(delta >= 0.0, "gamma_delta_point_linear: delta must be >= 0");
  auto sol = detail::solve_gamma_delta_lp(y, f, p, delta, tol);
  if (!sol) return std::nullopt;
  return std::move(sol->x);
}

double gamma_excess(const Vec& u, const std::vector<Vec>& y, std::size_t f,
                    double p, double tol) {
  double worst = 0.0;
  for (const PointView& t : drop_f_views(y, f)) {
    worst = std::max(worst, distance_to_hull(u, t, p, tol));
  }
  return worst;
}

}  // namespace rbvc
