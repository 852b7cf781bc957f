#include "hull/relaxed_hull.h"

#include <map>
#include <utility>

#include "geometry/hull.h"
#include "obs/metrics.h"

namespace rbvc {

bool in_k_relaxed_hull(const Vec& u, const std::vector<Vec>& s, std::size_t k,
                       double tol) {
  RBVC_REQUIRE(!s.empty(), "in_k_relaxed_hull: empty multiset");
  const std::size_t d = u.size();
  RBVC_REQUIRE(k >= 1 && k <= d, "in_k_relaxed_hull: need 1 <= k <= d");
  for (const auto& d_set : k_subsets(d, k)) {
    if (!in_hull(project(u, d_set), project_all(s, d_set), tol)) return false;
  }
  return true;
}

bool in_delta_p_hull(const Vec& u, const std::vector<Vec>& s, double delta,
                     double p, double tol) {
  RBVC_REQUIRE(delta >= 0.0, "in_delta_p_hull: delta must be >= 0");
  return hull_distance(u, s, p, tol) <= delta + tol;
}

double hull_distance(const Vec& u, PointView s, double p, double tol) {
  return distance_to_hull(u, s, p, tol);
}

std::vector<std::vector<std::size_t>> subsets_minus_f(std::size_t n,
                                                      std::size_t f) {
  RBVC_REQUIRE(f < n, "subsets_minus_f: need f < n");
  return k_subsets(n, n - f);
}

std::vector<PointView> drop_f_views(const std::vector<Vec>& s,
                                    std::size_t f) {
  // Per-thread, so concurrent episodes never share it; entries are never
  // erased, so the index lists the views point into stay valid.
  static thread_local std::map<std::pair<std::size_t, std::size_t>,
                               std::vector<std::vector<std::size_t>>>
      memo;
  const std::size_t n = s.size();
  auto it = memo.find({n, f});
  if (it != memo.end()) {
    obs::counter(obs::m::geom_workspace_subset_cache_hits).inc();
  } else {
    auto lists = subsets_minus_f(n, f);
    obs::counter(obs::m::geom_workspace_subset_cache_misses).inc();
    it = memo.emplace(std::make_pair(n, f), std::move(lists)).first;
  }
  std::vector<PointView> views;
  views.reserve(it->second.size());
  for (const auto& combo : it->second) views.emplace_back(s, combo);
  return views;
}

std::vector<std::vector<Vec>> drop_f_subsets(const std::vector<Vec>& s,
                                             std::size_t f) {
  std::vector<std::vector<Vec>> out;
  for (const auto& idx : subsets_minus_f(s.size(), f)) {
    std::vector<Vec> t;
    t.reserve(idx.size());
    for (std::size_t i : idx) t.push_back(s[i]);
    out.push_back(std::move(t));
  }
  return out;
}

namespace detail {

void add_delta_p_membership(lp::Model& m, lp::Model::VarId u0, PointView t,
                            double p, double delta,
                            std::optional<lp::Model::VarId> delta_col) {
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "(delta,p) LP encoding needs p in {1, inf}");
  RBVC_REQUIRE(delta >= 0.0, "(delta,p) LP encoding: delta must be >= 0");
  RBVC_REQUIRE(!t.empty(), "(delta,p) LP encoding: empty multiset T");
  const std::size_t d = t.front().size();
  const auto lambda0 = m.add_vars(t.size());
  // Residual split: s = s+ - s- with s+, s- >= 0.
  const auto sp0 = m.add_vars(d);
  const auto sm0 = m.add_vars(d);
  for (std::size_t r = 0; r < d; ++r) {
    // u[r] - sum_j lambda_j t_j[r] - s+[r] + s-[r] = 0
    std::vector<lp::Model::Term> row;
    row.push_back({u0 + r, 1.0});
    for (std::size_t j = 0; j < t.size(); ++j) {
      row.push_back({lambda0 + j, -t[j][r]});
    }
    row.push_back({sp0 + r, -1.0});
    row.push_back({sm0 + r, 1.0});
    m.add_constraint(row, lp::Rel::kEq, 0.0);
  }
  std::vector<lp::Model::Term> sum_row;
  for (std::size_t j = 0; j < t.size(); ++j) sum_row.push_back({lambda0 + j, 1.0});
  m.add_constraint(sum_row, lp::Rel::kEq, 1.0);

  auto add_norm_row = [&](std::vector<lp::Model::Term> terms) {
    if (delta_col) terms.push_back({*delta_col, -1.0});
    m.add_constraint(terms, lp::Rel::kLe, delta);
  };
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

}  // namespace detail

}  // namespace rbvc
