#include "hull/psi.h"

#include <algorithm>

#include "geometry/poly2d.h"

namespace rbvc {

namespace {

using VarId = lp::Model::VarId;

// Adds "the point at variables u0..u0+d-1 lies in H_k(T)" to the model.
void add_k_membership(lp::Model& m, VarId u0, std::size_t d,
                      const std::vector<Vec>& t, std::size_t k, double tol) {
  RBVC_REQUIRE(!t.empty(), "psi: empty multiset T");
  if (k == 1) {
    for (std::size_t i = 0; i < d; ++i) {
      double lo = t.front()[i], hi = t.front()[i];
      for (const Vec& v : t) {
        lo = std::min(lo, v[i]);
        hi = std::max(hi, v[i]);
      }
      m.add_constraint({{u0 + i, 1.0}}, lp::Rel::kLe, hi);
      m.add_constraint({{u0 + i, 1.0}}, lp::Rel::kGe, lo);
    }
    return;
  }
  if (k == 2) {
    for (const auto& d_set : k_subsets(d, 2)) {
      std::vector<Point2> proj;
      proj.reserve(t.size());
      for (const Vec& v : t) proj.push_back({v[d_set[0]], v[d_set[1]]});
      for (const Halfplane& h : hull_halfplanes_2d(proj, tol)) {
        m.add_constraint({{u0 + d_set[0], h.a}, {u0 + d_set[1], h.b}},
                         lp::Rel::kLe, h.c);
      }
    }
    return;
  }
  // General k: one barycentric block per projection index set D.
  for (const auto& d_set : k_subsets(d, k)) {
    const auto lambda0 = m.add_vars(t.size());
    for (std::size_t r = 0; r < k; ++r) {
      std::vector<lp::Model::Term> row;
      row.push_back({u0 + d_set[r], 1.0});
      for (std::size_t j = 0; j < t.size(); ++j) {
        row.push_back({lambda0 + j, -t[j][d_set[r]]});
      }
      m.add_constraint(row, lp::Rel::kEq, 0.0);
    }
    std::vector<lp::Model::Term> sum_row;
    for (std::size_t j = 0; j < t.size(); ++j) {
      sum_row.push_back({lambda0 + j, 1.0});
    }
    m.add_constraint(sum_row, lp::Rel::kEq, 1.0);
  }
}

void add_spec(lp::Model& m, VarId u0, std::size_t d,
              const RelaxedIntersectionSpec& spec, double tol) {
  for (const auto& t : spec.parts) {
    if (spec.k >= 1) {
      add_k_membership(m, u0, d, t, spec.k, tol);
    } else {
      detail::add_delta_p_membership(m, u0, t, spec.p, spec.delta);
    }
  }
}

lp::SimplexOptions options_for(double tol) {
  lp::SimplexOptions o;
  o.tol = std::min(tol, 1e-8);
  o.max_iters = 200'000;
  return o;
}

}  // namespace

std::optional<Vec> relaxed_intersection_point(
    const RelaxedIntersectionSpec& spec, double tol) {
  RBVC_REQUIRE(!spec.parts.empty(), "relaxed_intersection_point: no parts");
  const std::size_t d = spec.parts.front().front().size();
  lp::Model m;
  const auto u0 = m.add_vars(d, 0.0, /*free=*/true);
  add_spec(m, u0, d, spec, tol);
  const lp::Solution sol = m.solve(options_for(tol));
  if (sol.status != lp::Status::kOptimal) return std::nullopt;
  return Vec(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(d));
}

std::optional<double> relaxed_intersection_linf_gap(
    const RelaxedIntersectionSpec& a, const RelaxedIntersectionSpec& b,
    double tol) {
  RBVC_REQUIRE(!a.parts.empty() && !b.parts.empty(),
               "relaxed_intersection_linf_gap: no parts");
  const std::size_t d = a.parts.front().front().size();
  lp::Model m;
  const auto u0 = m.add_vars(d, 0.0, /*free=*/true);
  const auto v0 = m.add_vars(d, 0.0, /*free=*/true);
  const auto gap = m.add_var(1.0);  // minimize the Linf gap
  add_spec(m, u0, d, a, tol);
  add_spec(m, v0, d, b, tol);
  for (std::size_t r = 0; r < d; ++r) {
    // -gap <= u[r] - v[r] <= gap
    m.add_constraint({{u0 + r, 1.0}, {v0 + r, -1.0}, {gap, -1.0}},
                     lp::Rel::kLe, 0.0);
    m.add_constraint({{u0 + r, 1.0}, {v0 + r, -1.0}, {gap, 1.0}},
                     lp::Rel::kGe, 0.0);
  }
  const lp::Solution sol = m.solve(options_for(tol));
  if (sol.status != lp::Status::kOptimal) return std::nullopt;
  return std::max(0.0, sol.objective);
}

std::optional<Vec> psi_k_point(const std::vector<Vec>& y, std::size_t f,
                               std::size_t k, double tol) {
  RelaxedIntersectionSpec spec;
  spec.parts = drop_f_subsets(y, f);
  spec.k = k;
  return relaxed_intersection_point(spec, tol);
}

}  // namespace rbvc
