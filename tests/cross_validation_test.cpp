// Cross-validation between independent implementations of the same
// geometric question -- the strongest correctness evidence the library can
// give itself:
//   * 2-D membership: LP oracle vs halfplane (poly2d) oracle
//   * 2-D Gamma: LP feasibility vs exact polygon clipping
//   * distances: Wolfe L2 vs LP Linf/L1 orderings on the same instances
//   * Caratheodory support vs direct LP coefficients
// Also smoke-checks the umbrella header compiles and exposes everything.
#include "rbvc/rbvc.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rbvc {
namespace {

TEST(CrossValidation2D, LpVsHalfplaneMembership) {
  Rng rng(1201);
  std::size_t checked = 0, inside = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 6, 2);
    std::vector<Point2> pts2;
    for (const Vec& p : pts) pts2.push_back({p[0], p[1]});
    for (int q = 0; q < 10; ++q) {
      const Vec u = scale(1.5, rng.normal_vec(2));
      const bool by_lp = in_hull(u, pts, 1e-9);
      const bool by_halfplanes = in_hull_2d({u[0], u[1]}, pts2, 1e-7);
      // Skip razor-edge cases where tolerance conventions differ.
      const double dist = project_to_hull(u, pts).distance;
      if (dist > 1e-6 || by_lp) {
        EXPECT_EQ(by_lp, by_halfplanes)
            << "rep " << rep << " q " << q << " dist " << dist;
        ++checked;
        inside += by_lp ? 1 : 0;
      }
    }
  }
  EXPECT_GT(checked, 200u);
  EXPECT_GT(inside, 0u);  // both branches exercised
  EXPECT_LT(inside, checked);
}

TEST(CrossValidation2D, GammaLpVsPolygonClipping) {
  Rng rng(1213);
  for (int rep = 0; rep < 25; ++rep) {
    const std::size_t n = 4 + rep % 5;
    const std::size_t f = 1 + rep % 2;
    if (n <= f) continue;
    const auto pts = workload::gaussian_cloud(rng, n, 2);
    const bool by_lp = gamma_point(pts, f).has_value();
    const auto poly = consensus::gamma_polygon(pts, f);
    EXPECT_EQ(by_lp, poly.has_value()) << "rep " << rep;
    if (poly && by_lp) {
      // The LP's point must lie in (or within clipping tolerance of) the
      // clipped polygon -- both describe the same set. Near the bound the
      // polygon can be razor thin, so measure the Euclidean distance to it
      // rather than using halfplane predicates.
      const auto g = gamma_point(pts, f);
      std::vector<Vec> poly_vecs;
      for (const Point2& v : *poly) poly_vecs.push_back({v.x, v.y});
      EXPECT_LT(project_to_hull(*g, poly_vecs).distance, 1e-4)
          << "rep " << rep;
    }
  }
}

TEST(CrossValidationDistance, NormOrderOnSharedInstances) {
  Rng rng(1217);
  for (int rep = 0; rep < 25; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 7, 4);
    const Vec u = scale(2.5, rng.normal_vec(4));
    const double l1 = detail::lp_projection_via_lp(u, pts, 1.0, kTol).distance;
    const double l2 = detail::wolfe_min_norm(u, pts, kTol).distance;
    const double li =
        detail::lp_projection_via_lp(u, pts, kInfNorm, kTol).distance;
    EXPECT_GE(l1 + 1e-8, l2) << rep;
    EXPECT_GE(l2 + 1e-8, li) << rep;
    // And the sqrt(d) norm-equivalence sandwich: l2 <= sqrt(d) * linf.
    EXPECT_LE(l2, std::sqrt(4.0) * li + 1e-8) << rep;
  }
}

TEST(CrossValidationCaratheodory, SupportAgreesWithLp) {
  Rng rng(1223);
  for (int rep = 0; rep < 15; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 9, 3);
    Vec u = zeros(3);
    for (const Vec& p : pts) axpy(1.0 / 9.0, p, u);
    const auto red = caratheodory_reduce(u, pts, 1e-9);
    ASSERT_TRUE(red.has_value());
    // The reduced support's own hull still contains u (checked by LP).
    std::vector<Vec> support_pts;
    for (std::size_t i : red->support) support_pts.push_back(pts[i]);
    EXPECT_TRUE(in_hull(u, support_pts, 1e-6)) << "rep " << rep;
  }
}

TEST(CrossValidationDeltaStar, ThreeEnginesOneSimplex) {
  // Closed form (inradius), the delta LP (Linf scaled), and the general-p
  // cutting planes run at p = 2 all describe delta* of the same simplex
  // consistently.
  Rng rng(1229);
  const auto s = workload::random_simplex(rng, 3);
  const double exact = delta_star_2(s, 1).value;
  const auto views = drop_f_views(s, 1);
  const auto numeric = certified_min_max_hull_distance_p(
      views, 2.0, mean(s),
      std::vector<Vec>(views.size(), Vec(s.size() - 1, 1.0 / 3.0)));
  const double linf = delta_star_linear(s, 1, kInfNorm).value;
  EXPECT_TRUE(numeric.closed);
  EXPECT_LE(numeric.lower, exact + 1e-12);
  EXPECT_GE(numeric.upper, exact - 1e-12);
  EXPECT_LE(linf, exact + 1e-9);                       // norm ordering
  EXPECT_GE(std::sqrt(3.0) * linf + 1e-9, exact);      // equivalence
}

}  // namespace
}  // namespace rbvc
