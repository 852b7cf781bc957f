#include "opt/outer_approx.h"

#include <algorithm>
#include <limits>

#include "geometry/hull.h"
#include "lp/model.h"

namespace rbvc {

namespace {

// Master solves, and cut rows in the master, before the loop gives up with
// the gap open. Where Kelley's method tails off they bound the cost of a
// call and the size of the dense master (a few MiB).
constexpr std::size_t kMaxRounds = 32;
constexpr std::size_t kMaxCuts = 512;

// Cuts t - u.y >= rhs of the master, kept to check its answers.
struct Cuts {
  std::vector<Vec> u;
  std::vector<double> rhs;
};

// Whether (y, t) satisfies every master row to within eps. Nearly parallel
// cuts make the master ill-conditioned, and the simplex can then report
// kOptimal for a basis that drifted infeasible; such an answer bounds
// nothing.
bool satisfies_master(const Vec& y, double t, const Vec& width,
                      const Cuts& cuts, double eps) {
  if (t < -eps) return false;
  for (std::size_t j = 0; j < y.size(); ++j) {
    if (y[j] < -eps || y[j] > width[j] + eps) return false;
  }
  for (std::size_t k = 0; k < cuts.u.size(); ++k) {
    if (t - dot(cuts.u[k], y) < cuts.rhs[k] - eps) return false;
  }
  return true;
}

}  // namespace

OuterApproxResult certified_min_max_hull_distance(
    const std::vector<PointView>& sets, Vec init, double tol) {
  RBVC_REQUIRE(!sets.empty(), "certified_min_max_hull_distance: no sets");
  const std::size_t d = init.size();

  // Distinct points of the union (drop-f views share one point list) give
  // the box and the diameter that scales the gap tolerance.
  std::vector<const Vec*> pts;
  for (const PointView& s : sets) {
    for (const Vec& v : s) pts.push_back(&v);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  Vec lo = *pts.front();
  Vec hi = lo;
  double diam = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = std::min(lo[j], (*pts[i])[j]);
      hi[j] = std::max(hi[j], (*pts[i])[j]);
    }
    for (std::size_t k = i + 1; k < pts.size(); ++k) {
      diam = std::max(diam, dist2(*pts[i], *pts[k]));
    }
  }
  const double gap_tol = tol * std::max(1.0, diam);

  // Master over y = x - lo in [0, hi - lo] and t >= 0: minimize t.
  const Vec width = sub(hi, lo);
  lp::Model master;
  const lp::Model::VarId y0 = master.add_vars(d);
  const lp::Model::VarId t = master.add_var(1.0);
  for (std::size_t j = 0; j < d; ++j) {
    master.add_constraint({{y0 + j, 1.0}}, lp::Rel::kLe, width[j]);
  }
  Cuts cuts;

  OuterApproxResult out;
  out.upper = std::numeric_limits<double>::infinity();
  Vec x = std::move(init);
  Vec u;
  std::vector<lp::Model::Term> row(d + 1);
  row[d] = {t, 1.0};
  for (;;) {
    // Evaluate the iterate and cut every hull farther than the lower bound.
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
      for (std::size_t j = 0; j < d; ++j) row[j] = {y0 + j, -u[j]};
      cuts.rhs.push_back(dot(u, lo) - support(u, s));
      cuts.u.push_back(u);
      master.add_constraint(row, lp::Rel::kGe, cuts.rhs.back());
      ++out.cuts;
    }
    if (worst < out.upper) {
      out.upper = worst;
      out.point = x;
    }
    // The master's optimum never exceeds a value some point attains, but
    // rounding can put it a few ulps above one.
    out.lower = std::min(out.lower, out.upper);
    if (out.upper - out.lower <= gap_tol) {
      out.closed = true;
      break;
    }
    if (out.rounds == kMaxRounds || out.cuts > kMaxCuts) break;
    const lp::Solution sol = master.solve();
    ++out.rounds;
    if (sol.status != lp::Status::kOptimal) break;
    const Vec y(sol.x.begin() + static_cast<std::ptrdiff_t>(y0),
                sol.x.begin() + static_cast<std::ptrdiff_t>(y0 + d));
    if (satisfies_master(y, sol.x[t], width, cuts, gap_tol)) {
      // Adding rows never lowers the master's optimum; keep it monotone
      // against rounding.
      out.lower = std::max(out.lower, sol.objective);
    }
    // Cuts at a drifted answer's point are as valid as any, and a later
    // master usually recovers.
    add_into(lo, y, x);
  }
  return out;
}

}  // namespace rbvc
