// Tests for delta*(S) (paper Sec. 9): closed forms, numerical paths, and
// the theorem bounds.
#include "hull/delta_star.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "consensus/async_averaging.h"
#include "opt/outer_approx.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

TEST(DeltaStarTest, ZeroWhenGammaNonEmpty) {
  Rng rng(227);
  const auto s = workload::gaussian_cloud(rng, 6, 3);  // n > (d+1)f
  const auto r = delta_star_2(s, 1);
  EXPECT_EQ(r.method, DeltaStarResult::Method::kGammaNonempty);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(gamma_excess(r.point, s, 1, 2.0), 0.0, 1e-6);
}

TEST(DeltaStarTest, SimplexCaseUsesInradius) {
  Rng rng(229);
  const auto s = workload::random_simplex(rng, 4);
  const auto r = delta_star_2(s, 1);
  EXPECT_EQ(r.method, DeltaStarResult::Method::kSimplexInradius);
  ASSERT_TRUE(r.exact);
  const auto g = SimplexGeometry::build(s);
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(r.value, g->inradius(), 1e-12);
  EXPECT_EQ(r.lower, r.value);
  // The chosen point achieves exactly that excess.
  EXPECT_NEAR(gamma_excess(r.point, s, 1, 2.0), r.value, 1e-7);
}

TEST(DeltaStarTest, IdenticalInputs) {
  Rng rng(233);
  const auto s = workload::identical_points(rng, 5, 3);
  const auto r = delta_star_2(s, 2);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_TRUE(approx_equal(r.point, s.front(), 1e-9));
}

TEST(DeltaStarTest, Theorem8DegenerateInputsGiveZero) {
  // Affinely dependent inputs with f=1, 4 <= n <= d+1: delta* = 0.
  Rng rng(239);
  for (int rep = 0; rep < 5; ++rep) {
    // 5 points in a 3-dimensional subspace of R^6: n=5 <= d+1=7, affinely
    // dependent within their span? They span a 3-dim subspace and n-1=4 > 3
    // so the difference vectors are dependent -> Thm 8 applies.
    const auto s = workload::degenerate_subspace(rng, 5, 6, 3);
    const auto r = delta_star_2(s, 1);
    EXPECT_EQ(r.method, DeltaStarResult::Method::kGammaNonempty)
        << "rep " << rep;
    EXPECT_DOUBLE_EQ(r.value, 0.0);
  }
}

TEST(DeltaStarTest, SubspaceSimplexHandledExactly) {
  // n = 4 points spanning a 3-dim affine subspace of R^6 with f = 1: the
  // projected points form a simplex; delta* is its inradius.
  Rng rng(241);
  const auto s = workload::degenerate_subspace(rng, 4, 6, 3);
  const auto r = delta_star_2(s, 1);
  EXPECT_EQ(r.method, DeltaStarResult::Method::kSimplexInradius);
  EXPECT_GT(r.value, 0.0);
  EXPECT_NEAR(gamma_excess(r.point, s, 1, 2.0), r.value, 1e-6);
}

TEST(DeltaStarTest, NumericalPathMatchesExactOnSimplex) {
  // Lemma 13 pin: on the drop-1 views of a simplex the cutting-plane solver
  // must bracket the closed-form inradius and close on it.
  Rng rng(251);
  for (std::size_t d = 2; d <= 8; ++d) {
    const auto s = workload::random_simplex(rng, d);
    const auto g = SimplexGeometry::build(s);
    ASSERT_TRUE(g.has_value());
    const double r = g->inradius();
    const OuterApproxResult oa =
        certified_min_max_hull_distance(drop_f_views(s, 1), mean(s));
    EXPECT_TRUE(oa.closed) << "d=" << d;
    EXPECT_LE(oa.lower, r + 1e-9) << "d=" << d;
    EXPECT_LE(std::abs(oa.upper - r), 1e-9 * std::max(1.0, r)) << "d=" << d;
  }
}

TEST(DeltaStarTest, CertifiedValueOnViewWhereMinimaxOvershoots) {
  // A seeded n = 6, f = 2, d = 2 view on which the old 600 + 200-step
  // minimax of the round-0 rule returned 0.0115350, 15.9x the optimum. A
  // 200000 + 20000-step minimax from mean(S) reaches 7.25018e-4, and the
  // certified interval is [7.24100229588e-4, 7.24100229591e-4].
  Rng rng(14);
  const auto s = workload::gaussian_cloud(rng, 6, 2);
  const auto r = delta_star_2(
      s, 2, kTol, consensus::AsyncAveragingProcess::Params{}.minimax);
  ASSERT_EQ(r.method, DeltaStarResult::Method::kNumerical);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.value, 7.2410022959137519e-4, 1e-9);
  EXPECT_LE(r.lower, r.value);
}

TEST(DeltaStarTest, CertifiedIntervalOnSweepShapedViews) {
  // Views shaped like the L2 sweep's round-0 views: n = 5, f = 2, d = 2.
  Rng rng(283);
  std::size_t numerical = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const auto s = workload::gaussian_cloud(rng, 5, 2);
    const auto r = delta_star_2(s, 2);
    if (r.method != DeltaStarResult::Method::kNumerical) continue;
    ++numerical;
    EXPECT_LE(r.lower, r.value) << "rep " << rep;
    EXPECT_TRUE(r.exact) << "rep " << rep;
    EXPECT_LE(gamma_excess(r.point, s, 2, 2.0), r.value + 1e-9)
        << "rep " << rep;
    const auto again = delta_star_2(s, 2);
    EXPECT_EQ(again.point, r.point) << "rep " << rep;
    EXPECT_EQ(again.value, r.value) << "rep " << rep;
  }
  EXPECT_GT(numerical, 30u);
}

TEST(DeltaStarTest, LinearBisectionConsistent) {
  Rng rng(257);
  const auto s = workload::random_simplex(rng, 3);
  for (double p : {1.0, kInfNorm}) {
    const auto r = delta_star_linear(s, 1, p);
    EXPECT_GT(r.value, 0.0);
    // Witness achieves the value.
    EXPECT_LE(gamma_excess(r.point, s, 1, p), r.value + 1e-6);
    // Nothing does better: re-check feasibility below the value.
    EXPECT_FALSE(
        gamma_delta_point_linear(s, 1, r.value * 0.98 - 1e-9, p).has_value());
  }
}

TEST(DeltaStarTest, NormOrderingAcrossP) {
  // delta*_inf <= delta*_2 <= delta*_1 (norm ordering, Thm 14 machinery).
  Rng rng(263);
  const auto s = workload::random_simplex(rng, 3);
  const double d1 = delta_star_linear(s, 1, 1.0).value;
  const double d2 = delta_star_2(s, 1).value;
  const double dinf = delta_star_linear(s, 1, kInfNorm).value;
  EXPECT_LE(dinf, d2 + 1e-6);
  EXPECT_LE(d2, d1 + 1e-6);
}

TEST(DeltaStarTest, GeneralPUpperBound) {
  // delta*_p <= delta*_2 for p >= 2 (Theorem 14's first step).
  Rng rng(269);
  const auto s = workload::random_simplex(rng, 3);
  const auto d2 = delta_star_2(s, 1);
  const auto d4 = delta_star_p(s, 1, 4.0);
  EXPECT_LE(d4.value, d2.value + 1e-3);
}

TEST(DeltaStarTest, ValidatesArguments) {
  EXPECT_THROW(delta_star_2({{0.0}}, 1), invalid_argument);
  EXPECT_THROW(delta_star_2({{0.0}, {1.0}}, 0), invalid_argument);
  EXPECT_THROW(delta_star_linear({{0.0}, {1.0}}, 1, 2.0), invalid_argument);
}

TEST(DeltaStarTest, DeterministicPoint) {
  Rng rng(271);
  const auto s = workload::random_simplex(rng, 4);
  const auto a = delta_star_2(s, 1);
  const auto b = delta_star_2(s, 1);
  EXPECT_EQ(a.point, b.point);  // agreement depends on bitwise determinism
}

}  // namespace
}  // namespace rbvc
