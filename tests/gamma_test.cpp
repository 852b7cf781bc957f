#include "hull/gamma.h"

#include <gtest/gtest.h>

#include <string>

#include "geometry/hull.h"
#include "hull/delta_star.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

TEST(GammaTest, NonEmptyAboveTverbergBound) {
  // n >= (d+1)f + 1 implies Gamma(Y) != empty (Tverberg).
  Rng rng(163);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t d = 2 + rep % 3;
    const std::size_t f = 1 + rep % 2;
    const std::size_t n = (d + 1) * f + 1;
    const auto y = workload::gaussian_cloud(rng, n, d);
    const auto p = gamma_point(y, f);
    ASSERT_TRUE(p.has_value()) << "d=" << d << " f=" << f;
    // Certify: within every drop-f hull.
    for (const auto& t : drop_f_subsets(y, f)) {
      EXPECT_TRUE(in_hull(*p, t, 1e-6));
    }
  }
}

TEST(GammaTest, EmptyForSimplexVertices) {
  // d+1 affinely independent points with f = 1: the facets' hulls have
  // empty intersection (that's why delta* > 0 in Lemma 13).
  Rng rng(167);
  const auto verts = workload::random_simplex(rng, 3);
  EXPECT_FALSE(gamma_point(verts, 1).has_value());
}

TEST(GammaTest, ExcessMatchesDefinition) {
  Rng rng(173);
  const auto y = workload::gaussian_cloud(rng, 5, 3);
  const Vec u = rng.normal_vec(3);
  const double excess = gamma_excess(u, y, 1, 2.0);
  double expect = 0.0;
  for (const auto& t : drop_f_subsets(y, 1)) {
    expect = std::max(expect, project_to_hull(u, t).distance);
  }
  EXPECT_NEAR(excess, expect, 1e-12);
  // The LP norms, at f = 1 and f = 2, from the same point and the mean.
  for (const Vec& v : {u, mean(y)}) {
    for (const std::size_t f : {std::size_t{1}, std::size_t{2}}) {
      for (const double p : {1.0, kInfNorm}) {
        double expect_p = 0.0;
        for (const auto& t : drop_f_subsets(y, f)) {
          expect_p = std::max(expect_p, distance_to_hull(v, t, p));
        }
        EXPECT_NEAR(gamma_excess(v, y, f, p), expect_p, 1e-9)
            << "f=" << f << " p=" << p;
      }
    }
  }
}

TEST(GammaTest, EveryLpCountsAsOneSolve) {
  // lp.solves counts every LP, so across delta*_inf and gamma_excess(p=inf)
  // it grows by exactly as much as the lp.status.* outcomes together.
  obs::Registry& reg = obs::global();
  auto outcomes = [&reg] {
    std::uint64_t total = 0;
    for (const lp::Status s : {lp::Status::kOptimal, lp::Status::kInfeasible,
                               lp::Status::kUnbounded, lp::Status::kIterLimit}) {
      total += reg.counter(std::string("lp.status.") + lp::to_string(s))
                   .value();
    }
    return total;
  };
  const std::uint64_t solves0 = reg.counter("lp.solves").value();
  const std::uint64_t outcomes0 = outcomes();
  Rng rng(191);
  for (int rep = 0; rep < 20; ++rep) {
    const auto view = workload::gaussian_cloud(rng, 5, 2);
    const auto r = delta_star_linear(view, 2, kInfNorm);
    (void)gamma_excess(r.point, view, 2, kInfNorm);
  }
  const std::uint64_t solves = reg.counter("lp.solves").value() - solves0;
  EXPECT_GT(solves, 0u);
  EXPECT_EQ(solves, outcomes() - outcomes0);
}

TEST(GammaTest, DeltaLinearFeasibilityThreshold) {
  // For the simplex, Gamma_(delta,inf) becomes non-empty at some threshold;
  // verify monotonicity and witness correctness around it.
  Rng rng(179);
  const auto verts = workload::random_simplex(rng, 3);
  double lo = 0.0, hi = 10.0;
  for (int it = 0; it < 30; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (gamma_delta_point_linear(verts, 1, mid, kInfNorm)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double threshold = hi;
  EXPECT_GT(threshold, 1e-6);
  const auto w =
      gamma_delta_point_linear(verts, 1, threshold * 1.05, kInfNorm);
  ASSERT_TRUE(w.has_value());
  EXPECT_LE(gamma_excess(*w, verts, 1, kInfNorm), threshold * 1.05 + 1e-6);
  EXPECT_FALSE(
      gamma_delta_point_linear(verts, 1, threshold * 0.5, kInfNorm));
}

TEST(GammaTest, DeltaL1Witness) {
  Rng rng(181);
  const auto verts = workload::random_simplex(rng, 3);
  const auto w = gamma_delta_point_linear(verts, 1, 5.0, 1.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_LE(gamma_excess(*w, verts, 1, 1.0), 5.0 + 1e-6);
}

TEST(GammaTest, GammaPointDeterministic) {
  Rng rng(193);
  const auto y = workload::gaussian_cloud(rng, 6, 2);
  const auto a = gamma_point(y, 1);
  const auto b = gamma_point(y, 1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
}

TEST(GammaTest, ValidatesArguments) {
  // p = 2 has no linear encoding.
  EXPECT_THROW(gamma_delta_point_linear({{0.0}, {1.0}}, 1, 1.0, 2.0),
               invalid_argument);
  EXPECT_THROW(gamma_delta_point_linear({{0.0}, {1.0}}, 1, -1.0, kInfNorm),
               invalid_argument);
}

}  // namespace
}  // namespace rbvc
