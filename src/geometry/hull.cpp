#include "geometry/hull.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rbvc {

namespace {

lp::SimplexOptions options_for(double tol) {
  lp::SimplexOptions o;
  o.tol = std::min(tol, 1e-8);
  return o;
}

}  // namespace

std::optional<Vec> hull_coefficients(const Vec& u, PointView pts, double tol) {
  RBVC_REQUIRE(!pts.empty(), "hull_coefficients: empty point set");
  obs::counter(obs::m::geom_hull_membership_lps).inc();
  obs::ScopedTimer timer(obs::histogram(obs::m::geom_hull_seconds));
  const std::size_t d = u.size();
  for (const Vec& p : pts) {
    RBVC_REQUIRE(p.size() == d, "hull_coefficients: dimension mismatch");
  }
  lp::Model m;
  const auto lambda0 = m.add_vars(pts.size());
  for (std::size_t r = 0; r < d; ++r) {
    std::vector<lp::Model::Term> terms;
    terms.reserve(pts.size());
    for (std::size_t j = 0; j < pts.size(); ++j) {
      terms.push_back({lambda0 + j, pts[j][r]});
    }
    m.add_constraint(terms, lp::Rel::kEq, u[r]);
  }
  std::vector<lp::Model::Term> sum_row;
  for (std::size_t j = 0; j < pts.size(); ++j) sum_row.push_back({lambda0 + j, 1.0});
  m.add_constraint(sum_row, lp::Rel::kEq, 1.0);

  const lp::Solution sol = m.solve(options_for(tol));
  if (sol.status != lp::Status::kOptimal) return std::nullopt;
  return sol.x;
}

bool in_hull(const Vec& u, PointView pts, double tol) {
  return hull_coefficients(u, pts, tol).has_value();
}

std::optional<Vec> hull_intersection_point(const std::vector<PointView>& sets,
                                           double tol) {
  RBVC_REQUIRE(!sets.empty(), "hull_intersection_point: no sets");
  obs::counter(obs::m::geom_hull_intersection_lps).inc();
  obs::ScopedTimer timer(obs::histogram(obs::m::geom_hull_seconds));
  const std::size_t d = sets.front().front().size();
  lp::Model m;
  const auto u0 = m.add_vars(d, 0.0, /*free=*/true);
  for (const PointView& pts : sets) {
    RBVC_REQUIRE(!pts.empty(), "hull_intersection_point: empty set");
    const auto lambda0 = m.add_vars(pts.size());
    for (std::size_t r = 0; r < d; ++r) {
      std::vector<lp::Model::Term> terms;
      terms.push_back({u0 + r, -1.0});
      for (std::size_t j = 0; j < pts.size(); ++j) {
        RBVC_REQUIRE(pts[j].size() == d,
                     "hull_intersection_point: dimension mismatch");
        terms.push_back({lambda0 + j, pts[j][r]});
      }
      m.add_constraint(terms, lp::Rel::kEq, 0.0);
    }
    std::vector<lp::Model::Term> sum_row;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      sum_row.push_back({lambda0 + j, 1.0});
    }
    m.add_constraint(sum_row, lp::Rel::kEq, 1.0);
  }
  const lp::Solution sol = m.solve(options_for(tol));
  if (sol.status != lp::Status::kOptimal) return std::nullopt;
  return Vec(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d));
}

std::optional<Vec> hull_intersection_point(
    const std::vector<std::vector<Vec>>& sets, double tol) {
  return hull_intersection_point(std::vector<PointView>(sets.begin(), sets.end()),
                                 tol);
}

bool hulls_intersect(const std::vector<PointView>& sets, double tol) {
  return hull_intersection_point(sets, tol).has_value();
}

bool hulls_intersect(const std::vector<std::vector<Vec>>& sets, double tol) {
  return hull_intersection_point(sets, tol).has_value();
}

double support(const Vec& c, PointView pts) {
  RBVC_REQUIRE(!pts.empty(), "support: empty point set");
  // The support function of a polytope is attained at a vertex: just scan.
  double best = dot(c, pts.front());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    best = std::max(best, dot(c, pts[i]));
  }
  return best;
}

}  // namespace rbvc
