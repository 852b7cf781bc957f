#include <gtest/gtest.h>

#include <cmath>

#include "geometry/distance.h"
#include "geometry/hull.h"
#include "opt/outer_approx.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

const std::vector<Vec> kSquare = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};

TEST(WolfeTest, InsidePointHasZeroDistance) {
  const auto pr = project_to_hull({0.5, 0.5}, kSquare);
  EXPECT_NEAR(pr.distance, 0.0, 1e-7);
}

TEST(WolfeTest, ProjectionOntoEdge) {
  const auto pr = project_to_hull({2.0, 0.5}, kSquare);
  EXPECT_NEAR(pr.distance, 1.0, 1e-9);
  EXPECT_TRUE(approx_equal(pr.point, {1.0, 0.5}, 1e-8));
}

TEST(WolfeTest, ProjectionOntoVertex) {
  const auto pr = project_to_hull({2.0, 2.0}, kSquare);
  EXPECT_NEAR(pr.distance, std::sqrt(2.0), 1e-9);
  EXPECT_TRUE(approx_equal(pr.point, {1.0, 1.0}, 1e-8));
}

TEST(WolfeTest, SinglePointSet) {
  const std::vector<Vec> origin_only = {{0.0, 0.0}};
  const auto pr = project_to_hull({3.0, 4.0}, origin_only);
  EXPECT_NEAR(pr.distance, 5.0, 1e-12);
}

TEST(WolfeTest, DuplicatePointsHandled) {
  const std::vector<Vec> dups = {{1, 0}, {1, 0}, {1, 0}, {0, 1}};
  const auto pr = project_to_hull({2.0, 0.0}, dups);
  EXPECT_NEAR(pr.distance, 1.0, 1e-8);
}

TEST(WolfeTest, CoefficientsReconstructProjection) {
  Rng rng(17);
  const auto pts = workload::gaussian_cloud(rng, 7, 4);
  const Vec u = scale(5.0, rng.normal_vec(4));
  const auto pr = project_to_hull(u, pts);
  Vec recon = zeros(4);
  double sum = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_GE(pr.coeffs[i], -1e-10);
    axpy(pr.coeffs[i], pts[i], recon);
    sum += pr.coeffs[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
  EXPECT_LT(dist2(recon, pr.point), 1e-8);
}

TEST(WolfeTest, OptimalityCondition) {
  // KKT: <u - proj, v - proj> <= 0 for every vertex v.
  Rng rng(29);
  for (int rep = 0; rep < 25; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 6, 3);
    const Vec u = scale(3.0, rng.normal_vec(3));
    const auto pr = project_to_hull(u, pts);
    const Vec grad = sub(u, pr.point);
    for (const Vec& v : pts) {
      EXPECT_LE(dot(grad, sub(v, pr.point)), 1e-6)
          << "rep " << rep << " violates KKT";
    }
  }
}

TEST(WolfeTest, MatchesMembershipOracle) {
  Rng rng(31);
  for (int rep = 0; rep < 30; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 8, 4);
    const Vec u = rng.normal_vec(4);
    const bool inside = in_hull(u, pts, 1e-8);
    const double dist = project_to_hull(u, pts).distance;
    if (inside) {
      EXPECT_LT(dist, 1e-5) << "rep " << rep;
    } else {
      EXPECT_GT(dist, 1e-7) << "rep " << rep;
    }
  }
}

TEST(WolfeTest, DegenerateCollinearSet) {
  const std::vector<Vec> line = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  const auto pr = project_to_hull({0.0, 2.0}, line);
  EXPECT_NEAR(pr.distance, std::sqrt(2.0), 1e-8);
  EXPECT_TRUE(approx_equal(pr.point, {1.0, 1.0}, 1e-7));
}

TEST(WolfeTest, HighDimensionStress) {
  Rng rng(41);
  const auto pts = workload::gaussian_cloud(rng, 20, 12);
  const Vec u = scale(4.0, rng.normal_vec(12));
  const auto pr = project_to_hull(u, pts);
  // Verify against the certified interval of the general-p cutting planes
  // run at p = 2 with the box pinned at u.
  const auto ref = certified_min_max_hull_distance_p(
      {pts}, 2.0, u, {Vec(pts.size(), 1.0 / 20.0)}, kTol, /*pinned=*/true);
  ASSERT_TRUE(ref.closed);
  EXPECT_GE(pr.distance, ref.lower - 1e-12);
  EXPECT_LE(pr.distance, ref.upper + 1e-12);
}

}  // namespace
}  // namespace rbvc
