#include "opt/outer_approx.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "geometry/hull.h"
#include "lp/model.h"

namespace rbvc {

namespace {

// Master solves, and cut rows in the master, before the loop gives up with
// the gap open. Where Kelley's method tails off they bound the cost of a
// call and the size of the dense master (a few MiB).
constexpr std::size_t kMaxRounds = 64;
constexpr std::size_t kMaxCuts = 512;

// Distinct points of the union: drop-f views share one point list.
std::vector<const Vec*> distinct_points(const std::vector<PointView>& sets) {
  std::vector<const Vec*> pts;
  for (const PointView& s : sets) {
    for (const Vec& v : s) pts.push_back(&v);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  return pts;
}

double diameter(const std::vector<const Vec*>& pts) {
  double diam = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t k = i + 1; k < pts.size(); ++k) {
      diam = std::max(diam, dist2(*pts[i], *pts[k]));
    }
  }
  return diam;
}

void coordinate_box(const std::vector<const Vec*>& pts, Vec& lo, Vec& hi) {
  lo = *pts.front();
  hi = lo;
  for (const Vec* v : pts) {
    for (std::size_t j = 0; j < lo.size(); ++j) {
      lo[j] = std::min(lo[j], (*v)[j]);
      hi[j] = std::max(hi[j], (*v)[j]);
    }
  }
}

// The master's columns y = x - lo in [0, hi - lo] (ids 0..d-1) and t >= 0
// (id d), minimizing t.
lp::Model box_master(const Vec& lo, const Vec& hi) {
  const std::size_t d = lo.size();
  const Vec width = sub(hi, lo);
  lp::Model master;
  master.add_vars(d);
  master.add_var(1.0);
  for (std::size_t j = 0; j < d; ++j) {
    master.add_constraint({{j, 1.0}}, lp::Rel::kLe, width[j]);
  }
  return master;
}

// Kelley's loop, shared by both solvers. `evaluate(answer)` moves the
// iterate to the master's answer (empty: keep the start), adds a cut row to
// `master` for every hull farther away than out.lower, counts them in
// out.cuts, and records the iterate in `out` if it beats out.upper.
template <class Evaluate>
void run_kelley(lp::Model& master, double gap_tol, OuterApproxResult& out,
                Evaluate evaluate) {
  out.upper = std::numeric_limits<double>::infinity();
  Vec answer;
  for (;;) {
    evaluate(answer);
    // The master's optimum never exceeds a value some point attains, but
    // rounding can put it a few ulps above one.
    out.lower = std::min(out.lower, out.upper);
    if (out.upper - out.lower <= gap_tol) {
      out.closed = true;
      return;
    }
    if (out.rounds == kMaxRounds || out.cuts > kMaxCuts) return;
    lp::Solution sol = master.solve();
    ++out.rounds;
    if (sol.status != lp::Status::kOptimal) return;
    if (master.satisfies(sol.x, gap_tol)) {
      // Adding rows never lowers the master's optimum; keep it monotone
      // against rounding.
      out.lower = std::max(out.lower, sol.objective);
    } else {
      // Cuts at a drifted answer's point are as valid as any, and a later
      // master usually recovers.
      ++out.rejected;
    }
    answer = std::move(sol.x);
  }
}

}  // namespace

OuterApproxResult certified_min_max_hull_distance(
    const std::vector<PointView>& sets, Vec init, double tol) {
  RBVC_REQUIRE(!sets.empty(), "certified_min_max_hull_distance: no sets");
  const std::size_t d = init.size();
  const std::vector<const Vec*> pts = distinct_points(sets);
  Vec lo, hi;
  coordinate_box(pts, lo, hi);
  const double gap_tol = tol * std::max(1.0, diameter(pts));
  lp::Model master = box_master(lo, hi);
  const lp::Model::VarId t = d;

  OuterApproxResult out;
  Vec x = std::move(init);
  Vec u;
  std::vector<lp::Model::Term> row(d + 1);
  row[d] = {t, 1.0};
  run_kelley(master, gap_tol, out, [&](const Vec& answer) {
    if (!answer.empty()) {
      add_into(lo, Vec(answer.begin(), answer.begin() + d), x);
    }
    double worst = 0.0;
    for (const PointView& s : sets) {
      const HullProjection pr = project_to_hull(x, s, tol);
      worst = std::max(worst, pr.distance);
      if (pr.distance <= out.lower) continue;
      sub_into(x, pr.point, u);
      const double len = norm2(u);
      if (!(len > 0.0)) continue;
      scale_into(1.0 / len, u, u);
      // t >= u.(lo + y) - sigma(u)  <=>  t - u.y >= u.lo - sigma(u).
      for (std::size_t j = 0; j < d; ++j) row[j] = {j, -u[j]};
      master.add_constraint(row, lp::Rel::kGe, dot(u, lo) - support(u, s));
      ++out.cuts;
    }
    if (worst < out.upper) {
      out.upper = worst;
      out.point = x;
    }
  });
  return out;
}

OuterApproxResult certified_min_max_hull_distance_p(
    const std::vector<PointView>& sets, double p, Vec init,
    std::vector<Vec> init_coeffs, double tol, bool pinned) {
  RBVC_REQUIRE(!sets.empty(), "certified_min_max_hull_distance_p: no sets");
  RBVC_REQUIRE(p >= 1.0 && p < kInfNorm,
               "certified_min_max_hull_distance_p: p must be finite, >= 1");
  RBVC_REQUIRE(init_coeffs.size() == sets.size(),
               "certified_min_max_hull_distance_p: one start per set");
  const std::size_t d = init.size();
  std::vector<const Vec*> pts = distinct_points(sets);
  Vec lo = init;
  Vec hi = init;
  if (!pinned) coordinate_box(pts, lo, hi);
  pts.push_back(&lo);
  pts.push_back(&hi);
  const double gap_tol = tol * std::max(1.0, diameter(pts));

  // Per set, weights lambda >= 0 summing to 1.
  lp::Model master = box_master(lo, hi);
  const lp::Model::VarId t = d;
  std::vector<lp::Model::VarId> lam0(sets.size());
  std::vector<lp::Model::Term> row;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    RBVC_REQUIRE(init_coeffs[i].size() == sets[i].size(),
                 "certified_min_max_hull_distance_p: one weight per point");
    lam0[i] = master.add_vars(sets[i].size());
    row.clear();
    for (std::size_t k = 0; k < sets[i].size(); ++k) {
      row.push_back({lam0[i] + k, 1.0});
    }
    master.add_constraint(row, lp::Rel::kEq, 1.0);
  }

  OuterApproxResult out;
  Vec x = std::move(init);
  std::vector<Vec> lambda = std::move(init_coeffs);
  Vec proj;
  Vec g(d);
  run_kelley(master, gap_tol, out, [&](const Vec& answer) {
    if (!answer.empty()) {
      add_into(lo, Vec(answer.begin(), answer.begin() + d), x);
      // Clip the answer's weights onto the simplex, so that V lambda lies
      // in the hull and the iterate's value bounds delta* from above.
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const auto first = answer.begin() + lam0[i];
        Vec w(first, first + sets[i].size());
        for (double& v : w) v = std::max(0.0, v);
        const double total = std::accumulate(w.begin(), w.end(), 0.0);
        if (!(total > 0.0)) continue;
        for (std::size_t k = 0; k < w.size(); ++k) lambda[i][k] = w[k] / total;
      }
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const PointView& s = sets[i];
      proj = zeros(d);
      for (std::size_t k = 0; k < s.size(); ++k) {
        axpy(lambda[i][k], s[k], proj);
      }
      const double dist = lp_dist(x, proj, p);
      worst = std::max(worst, dist);
      if (dist <= out.lower) continue;
      // g = the gradient of ||.||_p at r = x - V lambda, whose q-norm is 1:
      // g_j = sign(r_j) (|r_j| / ||r||_p)^(p-1). The cut
      // t >= g.(lo + y - V lambda)  <=>  t - g.y + sum_k (g.v_k) lambda_k
      // >= g.lo.
      row.clear();
      for (std::size_t j = 0; j < d; ++j) {
        const double r = x[j] - proj[j];
        g[j] = std::copysign(std::pow(std::abs(r) / dist, p - 1.0), r);
        row.push_back({j, -g[j]});
      }
      for (std::size_t k = 0; k < s.size(); ++k) {
        row.push_back({lam0[i] + k, dot(g, s[k])});
      }
      row.push_back({t, 1.0});
      master.add_constraint(row, lp::Rel::kGe, dot(g, lo));
      ++out.cuts;
    }
    if (worst < out.upper) {
      out.upper = worst;
      out.point = x;
      out.coeffs = lambda;
    }
  });
  return out;
}

}  // namespace rbvc
