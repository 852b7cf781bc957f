#include "geometry/distance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/outer_approx.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

const std::vector<Vec> kSquare = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};

TEST(DistanceTest, LinfAxisAligned) {
  EXPECT_NEAR(distance_to_hull({2.0, 0.5}, kSquare, kInfNorm), 1.0, 1e-8);
  EXPECT_NEAR(distance_to_hull({2.0, 2.0}, kSquare, kInfNorm), 1.0, 1e-8);
  EXPECT_NEAR(distance_to_hull({0.5, 0.5}, kSquare, kInfNorm), 0.0, 1e-8);
}

TEST(DistanceTest, L1AxisAligned) {
  EXPECT_NEAR(distance_to_hull({2.0, 0.5}, kSquare, 1.0), 1.0, 1e-8);
  EXPECT_NEAR(distance_to_hull({2.0, 2.0}, kSquare, 1.0), 2.0, 1e-8);
}

TEST(DistanceTest, NormOrderingAcrossP) {
  // dist_p is non-increasing in p for p >= 1 (pointwise norm ordering).
  Rng rng(53);
  for (int rep = 0; rep < 15; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 6, 4);
    const Vec u = scale(3.0, rng.normal_vec(4));
    const double d1 = distance_to_hull(u, pts, 1.0);
    const double d2 = distance_to_hull(u, pts, 2.0);
    const double dinf = distance_to_hull(u, pts, kInfNorm);
    EXPECT_GE(d1, d2 - 1e-7) << "rep " << rep;
    EXPECT_GE(d2, dinf - 1e-7) << "rep " << rep;
  }
}

TEST(DistanceTest, GeneralPBetweenTwoAndInf) {
  Rng rng(59);
  for (int rep = 0; rep < 8; ++rep) {
    const auto pts = workload::gaussian_cloud(rng, 5, 3);
    const Vec u = scale(3.0, rng.normal_vec(3));
    const double d2 = distance_to_hull(u, pts, 2.0);
    const double d3 = distance_to_hull(u, pts, 3.0);
    const double dinf = distance_to_hull(u, pts, kInfNorm);
    // d3 is the upper end of a certified interval closed to 1e-9 * diam.
    EXPECT_LE(d3, d2 + 1e-8) << "rep " << rep;
    EXPECT_GE(d3, dinf - 1e-8) << "rep " << rep;
  }
}

TEST(DistanceTest, GeneralPOnSinglePoint) {
  const std::vector<Vec> one = {{1.0, 1.0, 1.0}};
  const Vec u = {0.0, 0.0, 0.0};
  EXPECT_NEAR(distance_to_hull(u, one, 3.0), std::pow(3.0, 1.0 / 3.0), 1e-12);
}

TEST(DistanceTest, LpProjectionReturnsHullPoint) {
  Rng rng(61);
  const auto pts = workload::gaussian_cloud(rng, 6, 3);
  const Vec u = scale(4.0, rng.normal_vec(3));
  for (double p : {1.0, kInfNorm}) {
    const auto pr = project_to_hull_p(u, pts, p);
    double sum = 0.0;
    Vec recon = zeros(3);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_GE(pr.coeffs[i], -1e-9);
      sum += pr.coeffs[i];
      axpy(pr.coeffs[i], pts[i], recon);
    }
    EXPECT_NEAR(sum, 1.0, 1e-7);
    EXPECT_NEAR(lp_dist(u, recon, p), pr.distance, 1e-7);
  }
}

TEST(DistanceTest, InvalidPThrows) {
  const std::vector<Vec> single = {{1.0}};
  EXPECT_THROW(distance_to_hull({0.0}, single, 0.5), invalid_argument);
  EXPECT_THROW(detail::lp_projection_via_lp({0.0}, single, 2.0, kTol),
               invalid_argument);
  EXPECT_THROW(certified_min_max_hull_distance_p({single}, kInfNorm, {0.0},
                                                 {Vec{1.0}}, kTol, true),
               invalid_argument);
}

TEST(DistanceTest, WolfeVsLpCrossCheckOnSegments) {
  // For points on a coordinate axis, L2 and Linf distances coincide.
  const std::vector<Vec> seg = {{0.0, 0.0}, {4.0, 0.0}};
  const Vec u = {5.0, 0.0};
  EXPECT_NEAR(distance_to_hull(u, seg, 2.0),
              distance_to_hull(u, seg, kInfNorm), 1e-8);
}

}  // namespace
}  // namespace rbvc
