#include "hull/gamma.h"

#include <algorithm>
#include <string>

#include "geometry/hull.h"

namespace rbvc {

std::optional<Vec> gamma_point(const std::vector<Vec>& y, std::size_t f,
                               double tol, GeometryWorkspace& ws) {
  return hull_intersection_point(ws.drop_f_views(y, f), tol);
}

namespace detail {

std::optional<GammaDeltaLpPoint> solve_gamma_delta_lp(
    const std::vector<Vec>& y, std::size_t f, double p,
    std::optional<double> delta, double tol, GeometryWorkspace& ws) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "gamma_delta_point_linear: p must be 1 or inf");
  const std::size_t d = y.front().size();
  lp::Model model;
  const auto u0 = model.add_vars(d, 0.0, /*free=*/true);
  // A pinned delta is the norm rows' right-hand side; a free one is a
  // column moved to their left-hand side.
  const lp::Model::VarId delta_col = delta ? 0 : model.add_var(1.0);
  auto add_norm_row = [&](std::vector<lp::Model::Term> terms) {
    if (!delta) terms.push_back({delta_col, -1.0});
    model.add_constraint(terms, lp::Rel::kLe, delta.value_or(0.0));
  };

  for (const PointView& t : ws.drop_f_views(y, f)) {
    const auto lambda0 = model.add_vars(t.size());
    // Residual split: s = s+ - s- with s+, s- >= 0.
    const auto sp0 = model.add_vars(d);
    const auto sm0 = model.add_vars(d);
    for (std::size_t r = 0; r < d; ++r) {
      // u[r] - sum_j lambda_j t_j[r] - s+[r] + s-[r] = 0
      std::vector<lp::Model::Term> row;
      row.push_back({u0 + r, 1.0});
      for (std::size_t j = 0; j < t.size(); ++j) {
        row.push_back({lambda0 + j, -t[j][r]});
      }
      row.push_back({sp0 + r, -1.0});
      row.push_back({sm0 + r, 1.0});
      model.add_constraint(row, lp::Rel::kEq, 0.0);
    }
    std::vector<lp::Model::Term> sum_row;
    for (std::size_t j = 0; j < t.size(); ++j) sum_row.push_back({lambda0 + j, 1.0});
    model.add_constraint(sum_row, lp::Rel::kEq, 1.0);

    if (p == 1.0) {
      // sum_r (s+[r] + s-[r]) <= delta
      std::vector<lp::Model::Term> norm_row;
      for (std::size_t r = 0; r < d; ++r) {
        norm_row.push_back({sp0 + r, 1.0});
        norm_row.push_back({sm0 + r, 1.0});
      }
      add_norm_row(std::move(norm_row));
    } else {
      // s+[r] + s-[r] <= delta per coordinate (with both >= 0, at the
      // optimum at most one side is active, so this bounds |s_r|).
      for (std::size_t r = 0; r < d; ++r) {
        add_norm_row({{sp0 + r, 1.0}, {sm0 + r, 1.0}});
      }
    }
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
  out.delta = delta ? *delta : std::max(0.0, sol.x[delta_col]);
  return out;
}

}  // namespace detail

std::optional<Vec> gamma_delta_point_linear(const std::vector<Vec>& y,
                                            std::size_t f, double delta,
                                            double p, double tol,
                                            GeometryWorkspace& ws) {
  RBVC_REQUIRE(delta >= 0.0, "gamma_delta_point_linear: delta must be >= 0");
  auto sol = detail::solve_gamma_delta_lp(y, f, p, delta, tol, ws);
  if (!sol) return std::nullopt;
  return std::move(sol->x);
}

double gamma_excess(const Vec& u, const std::vector<Vec>& y, std::size_t f,
                    double p, double tol, GeometryWorkspace& ws) {
  const auto views = ws.drop_f_views(y, f);
  double worst = 0.0;
  if (p == 1.0 || p >= kInfNorm) {
    // The per-subset distance LPs all have the same shape (only f of the
    // points differ between consecutive subsets), so one warm solver's
    // retained basis carries across them.
    lp::IncrementalSolver& solver = ws.solver();
    solver.reset();  // results must not depend on prior workspace history
    for (const PointView& t : views) {
      worst = std::max(
          worst, detail::lp_projection_via_lp(u, t, p, tol, &solver).distance);
    }
  } else {
    for (const PointView& t : views) {
      worst = std::max(worst, distance_to_hull(u, t, p, tol));
    }
  }
  return worst;
}

}  // namespace rbvc
