// Tests for the relaxed hull definitions (paper Sec. 5) and containment
// lemmas (Lemmas 1, 6-9 structure).
#include "hull/relaxed_hull.h"

#include <gtest/gtest.h>

#include "geometry/hull.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

TEST(RelaxedHullTest, GeneralPInteriorPointsAreMembers) {
  // Points inside the unit square are at distance 0 in every norm, so
  // general p must certify membership at a relaxation far below 1e-4.
  const std::vector<Vec> square = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  for (const Vec& u : {Vec{0.3, 0.6}, Vec{0.9, 0.2}, Vec{0.5, 0.5}}) {
    for (double p : {1.5, 3.0, 4.0}) {
      EXPECT_TRUE(in_delta_p_hull(u, square, 1e-4, p))
          << "u=(" << u[0] << ", " << u[1] << ") p=" << p;
    }
  }
}

TEST(RelaxedHullTest, KEqualsDMatchesExactHull) {
  Rng rng(137);
  const auto s = workload::gaussian_cloud(rng, 6, 3);
  for (int rep = 0; rep < 30; ++rep) {
    const Vec u = rng.normal_vec(3);
    EXPECT_EQ(in_k_relaxed_hull(u, s, 3), in_hull(u, s)) << "rep " << rep;
  }
}

TEST(RelaxedHullTest, K1IsBoundingBox) {
  const std::vector<Vec> s = {{0.0, 0.0}, {1.0, 1.0}};
  // The 1-relaxed hull of two points is their bounding box.
  EXPECT_TRUE(in_k_relaxed_hull({1.0, 0.0}, s, 1));
  EXPECT_TRUE(in_k_relaxed_hull({0.0, 1.0}, s, 1));
  EXPECT_FALSE(in_hull({1.0, 0.0}, s));  // but not the exact hull
  EXPECT_FALSE(in_k_relaxed_hull({1.5, 0.5}, s, 1));
}

TEST(RelaxedHullTest, Lemma1ContainmentOrder) {
  // H_i(S) subset of H_j(S) for i >= j: membership at k implies at k-1.
  Rng rng(139);
  for (int rep = 0; rep < 20; ++rep) {
    const auto s = workload::gaussian_cloud(rng, 5, 4);
    const Vec u = rng.normal_vec(4);
    bool prev = in_k_relaxed_hull(u, s, 4);  // k = d (smallest set)
    for (std::size_t k = 3; k >= 1; --k) {
      const bool cur = in_k_relaxed_hull(u, s, k);
      if (prev) {
        EXPECT_TRUE(cur) << "rep " << rep << " k=" << k;
      }
      prev = cur;
    }
  }
}

TEST(RelaxedHullTest, DeltaZeroMatchesExactHull) {
  Rng rng(149);
  const auto s = workload::gaussian_cloud(rng, 6, 3);
  for (int rep = 0; rep < 20; ++rep) {
    const Vec u = rng.normal_vec(3);
    EXPECT_EQ(in_delta_p_hull(u, s, 0.0, 2.0), in_hull(u, s, 1e-7))
        << "rep " << rep;
  }
}

TEST(RelaxedHullTest, DeltaMonotone) {
  // Lemmas 6-9 rely on H_(delta',p) subset of H_(delta,p) for delta' <= delta.
  Rng rng(151);
  const auto s = workload::gaussian_cloud(rng, 5, 3);
  for (int rep = 0; rep < 20; ++rep) {
    const Vec u = scale(2.0, rng.normal_vec(3));
    bool prev = false;
    for (double delta : {0.0, 0.2, 0.5, 1.0, 3.0, 10.0}) {
      const bool cur = in_delta_p_hull(u, s, delta, 2.0);
      if (prev) {
        EXPECT_TRUE(cur) << "rep " << rep << " delta=" << delta;
      }
      prev = cur;
    }
  }
}

TEST(RelaxedHullTest, DeltaHullRespectsNorm) {
  const std::vector<Vec> s = {{0.0, 0.0}};
  const Vec u = {1.0, 1.0};  // L2 dist sqrt(2), L1 dist 2, Linf dist 1
  EXPECT_TRUE(in_delta_p_hull(u, s, 1.0, kInfNorm));
  EXPECT_FALSE(in_delta_p_hull(u, s, 1.0, 2.0));
  EXPECT_FALSE(in_delta_p_hull(u, s, 1.3, 1.0));
  EXPECT_TRUE(in_delta_p_hull(u, s, 2.0, 1.0));
}

TEST(RelaxedHullTest, ExactHullInsideEveryRelaxation) {
  // Sec. 5.3: both relaxed hulls contain H(S).
  Rng rng(157);
  for (int rep = 0; rep < 15; ++rep) {
    const auto s = workload::gaussian_cloud(rng, 6, 3);
    // Random point of H(S):
    Vec w(6);
    double sum = 0.0;
    for (double& v : w) {
      v = rng.uniform(0.0, 1.0);
      sum += v;
    }
    Vec p = zeros(3);
    for (std::size_t i = 0; i < 6; ++i) axpy(w[i] / sum, s[i], p);
    for (std::size_t k = 1; k <= 3; ++k) {
      EXPECT_TRUE(in_k_relaxed_hull(p, s, k, 1e-7)) << "k=" << k;
    }
    EXPECT_TRUE(in_delta_p_hull(p, s, 0.0, 2.0, 1e-6));
  }
}

TEST(RelaxedHullTest, SubsetsMinusF) {
  EXPECT_EQ(subsets_minus_f(5, 1).size(), 5u);
  EXPECT_EQ(subsets_minus_f(6, 2).size(), 15u);
  EXPECT_THROW(subsets_minus_f(3, 3), invalid_argument);
  const auto sets = drop_f_subsets({{1.0}, {2.0}, {3.0}}, 1);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 2u);
}

TEST(RelaxedHullTest, InvalidKThrows) {
  const std::vector<Vec> s = {{1.0, 2.0}};
  EXPECT_THROW(in_k_relaxed_hull({0.0, 0.0}, s, 0), invalid_argument);
  EXPECT_THROW(in_k_relaxed_hull({0.0, 0.0}, s, 3), invalid_argument);
  EXPECT_THROW(in_delta_p_hull({0.0, 0.0}, s, -0.1, 2.0), invalid_argument);
}

}  // namespace
}  // namespace rbvc
