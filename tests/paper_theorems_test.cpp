// Computational certificates for the paper's theorem statements: each test
// checks the operative fact a theorem's proof hinges on, at and around the
// stated bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "consensus/verifier.h"
#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "hull/psi.h"
#include "sim/rng.h"
#include "workload/adversarial_inputs.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

// --------------------------------------------------------------------------
// Theorem 3: k-relaxed exact BVC needs n >= (d+1)f + 1 (2 <= k <= d-1).
// --------------------------------------------------------------------------

TEST(Theorem3, FeasibilityFlipsAtBound) {
  Rng rng(601);
  for (std::size_t d : {3u, 4u}) {
    // At n = d+1 the adversarial inputs make Psi_2 empty...
    const auto bad = workload::thm3_inputs(d, 1.0, 0.5);
    EXPECT_FALSE(psi_k_point(bad, 1, 2).has_value()) << "d=" << d;
    // ...whereas n = (d+1)f+1 = d+2 random inputs always give a point
    // (Gamma non-empty by Tverberg, and Gamma is inside Psi_k).
    const auto good = workload::gaussian_cloud(rng, d + 2, d);
    EXPECT_TRUE(psi_k_point(good, 1, 2).has_value()) << "d=" << d;
  }
}

TEST(Theorem3, SomeNdPlus1InputsAreFeasible) {
  // The bound is worst-case: Psi_2 emptiness at n = d+1 needs adversarial
  // structure -- it is NOT vacuous. (Empirically, random full simplices
  // also tend to have empty Psi_2; a configuration with one input at the
  // others' centroid has Gamma -- hence Psi_2 -- non-empty.)
  Rng rng(607);
  std::vector<Vec> s = workload::gaussian_cloud(rng, 3, 3);
  s.push_back(mean(s));  // 4th process sits at the centroid
  EXPECT_TRUE(psi_k_point(s, 1, 2).has_value());
  EXPECT_TRUE(gamma_point(s, 1).has_value());
}

// --------------------------------------------------------------------------
// Theorem 4 / Appendix B: async k-relaxed needs n >= (d+2)f + 1.
// --------------------------------------------------------------------------

TEST(Theorem4, ForcedLinfGapAtLeast2Eps) {
  // With n = d+2 and the Appendix B inputs, the output sets Psi^1 and Psi^2
  // of processes 1 and 2 are >= 2 epsilon apart in Linf, violating
  // epsilon-agreement.
  const double gamma = 1.0, eps = 0.2;
  for (std::size_t d : {3u, 4u}) {
    const auto s = workload::appendix_b_inputs(d, gamma, eps);
    RelaxedIntersectionSpec psi1, psi2;
    psi1.parts = workload::async_proof_subsets(s, 0);
    psi1.k = 2;
    psi2.parts = workload::async_proof_subsets(s, 1);
    psi2.k = 2;
    // Both output sets are individually non-empty...
    ASSERT_TRUE(relaxed_intersection_point(psi1).has_value()) << "d=" << d;
    ASSERT_TRUE(relaxed_intersection_point(psi2).has_value()) << "d=" << d;
    // ...but they are forced at least 2 eps apart.
    const auto gap = relaxed_intersection_linf_gap(psi1, psi2);
    ASSERT_TRUE(gap.has_value()) << "d=" << d;
    EXPECT_GE(*gap, 2.0 * eps - 1e-7) << "d=" << d;
  }
}

// --------------------------------------------------------------------------
// Theorem 5: constant-delta (delta,p) exact BVC needs n >= (d+1)f + 1.
// --------------------------------------------------------------------------

TEST(Theorem5, EmptyIntersectionAboveThreshold) {
  const double delta = 0.25;
  for (std::size_t d : {2u, 3u, 5u}) {
    const double x_bad = 2.0 * static_cast<double>(d) * delta * 1.01;
    const auto bad = workload::thm5_inputs(d, x_bad);
    EXPECT_FALSE(
        gamma_delta_point_linear(bad, 1, delta, kInfNorm).has_value())
        << "d=" << d;
    const double x_ok = 2.0 * static_cast<double>(d) * delta * 0.95;
    const auto ok = workload::thm5_inputs(d, x_ok);
    EXPECT_TRUE(gamma_delta_point_linear(ok, 1, delta, kInfNorm).has_value())
        << "d=" << d;
  }
}

TEST(Theorem5, ObservationsOneAndTwo) {
  // Observation 1: dropping input i forces coordinate i <= delta.
  // Observation 2: dropping input d+1 forces some coordinate >= x/d - delta.
  const double delta = 0.25;
  const std::size_t d = 3;
  const double x = 2.0 * d * delta * 1.5;
  const auto s = workload::thm5_inputs(d, x);
  // Witness for observation 2: every point of H(T), T = all but the origin,
  // has max coordinate >= x/d; verified via the support function on the
  // negated max -- here just check the centroid.
  Vec centroid = zeros(d);
  for (std::size_t i = 0; i < d; ++i) axpy(1.0 / d, s[i], centroid);
  double maxc = 0.0;
  for (double v : centroid) maxc = std::max(maxc, v);
  EXPECT_GE(maxc, x / static_cast<double>(d) - 1e-9);
}

// --------------------------------------------------------------------------
// Theorem 6 / Appendix C: async constant-delta needs n >= (d+2)f + 1.
// --------------------------------------------------------------------------

TEST(Theorem6, ForcedGapExceedsEps) {
  const double delta = 0.2, eps = 0.3;
  for (std::size_t d : {2u, 3u}) {
    const double x = (2.0 * d * delta + eps) * 1.05;
    const auto s = workload::appendix_c_inputs(d, x);
    RelaxedIntersectionSpec psi1, psi2;
    psi1.parts = workload::async_proof_subsets(s, 0);
    psi1.k = 0;
    psi1.delta = delta;
    psi1.p = kInfNorm;
    psi2 = psi1;
    psi2.parts = workload::async_proof_subsets(s, 1);
    ASSERT_TRUE(relaxed_intersection_point(psi1).has_value()) << "d=" << d;
    ASSERT_TRUE(relaxed_intersection_point(psi2).has_value()) << "d=" << d;
    const auto gap = relaxed_intersection_linf_gap(psi1, psi2);
    ASSERT_TRUE(gap.has_value());
    EXPECT_GT(*gap, eps) << "d=" << d;
  }
}

// --------------------------------------------------------------------------
// Theorem 9: delta* bounds for f = 1, n = d+1.
// --------------------------------------------------------------------------

TEST(Theorem9, BoundsOverRandomSimplices) {
  Rng rng(613);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t d = 3 + rep % 4;
    const auto s = workload::random_simplex(rng, d);
    const auto ds = delta_star_2(s, 1);
    const auto ee = edge_extremes(s);
    const std::size_t n = d + 1;
    EXPECT_LT(ds.value, ee.min_edge / 2.0) << "rep " << rep;
    EXPECT_LT(ds.value, ee.max_edge / static_cast<double>(n - 2))
        << "rep " << rep;
  }
}

TEST(Theorem9, FaultyFacetBound) {
  // The sharper statement: delta* < max-edge(E+)/(n-2) where E+ excludes
  // the faulty vertex -- check against every possible faulty index.
  Rng rng(617);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t d = 3 + rep % 3;
    const auto s = workload::random_simplex(rng, d);
    const auto ds = delta_star_2(s, 1);
    for (std::size_t faulty = 0; faulty <= d; ++faulty) {
      std::vector<Vec> honest;
      for (std::size_t i = 0; i <= d; ++i) {
        if (i != faulty) honest.push_back(s[i]);
      }
      const auto ee = edge_extremes(honest);
      EXPECT_LT(ds.value, ee.max_edge / static_cast<double>(d - 1))
          << "rep " << rep << " faulty " << faulty;
    }
  }
}

// --------------------------------------------------------------------------
// Theorem 12: f >= 2, n = (d+1)f: delta* < max-edge(E+)/(d-1).
// --------------------------------------------------------------------------

TEST(Theorem12, BoundOverRandomInputs) {
  Rng rng(619);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t d = 3, f = 2, n = (d + 1) * f;
    const auto s = workload::gaussian_cloud(rng, n, d);
    const auto ds = delta_star_2(s, f);
    // Check against every possible set of f faulty indices.
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        std::vector<Vec> honest;
        for (std::size_t i = 0; i < n; ++i) {
          if (i != a && i != b) honest.push_back(s[i]);
        }
        const auto ee = edge_extremes(honest);
        EXPECT_LT(ds.value, ee.max_edge / static_cast<double>(d - 1))
            << "rep " << rep;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Theorem 14: Lp scaling of the delta* bounds.
// --------------------------------------------------------------------------

TEST(Theorem14, LpBoundScaling) {
  Rng rng(631);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t d = 3;
    const auto s = workload::random_simplex(rng, d);
    const auto d2 = delta_star_2(s, 1);
    for (double p : {2.0, 4.0, kInfNorm}) {
      const auto dp = delta_star_p(s, 1, p);
      // delta*_p <= delta*_2 for p >= 2 ...
      EXPECT_LE(dp.value, d2.value) << "p=" << p;
      // ... and the scaled Theorem 9 bound holds in Lp.
      const double kappa = std::min(0.5, 1.0 / static_cast<double>(d - 1));
      const double factor =
          (p >= kInfNorm) ? std::sqrt(static_cast<double>(d))
                          : std::pow(static_cast<double>(d), 0.5 - 1.0 / p);
      const auto ee = edge_extremes(s, p);
      EXPECT_LT(dp.value, factor * kappa * ee.max_edge + 1e-6) << "p=" << p;
    }
  }
}

// --------------------------------------------------------------------------
// Conjecture 1 (empirical probe): 3f+1 <= n < (d+1)f.
// --------------------------------------------------------------------------

TEST(Conjecture1, HoldsOnRandomInstances) {
  Rng rng(641);
  std::size_t checked = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t f = 2, d = 5;
    const std::size_t n = 7 + rep % 3;  // 3f+1 = 7 .. 9 < (d+1)f = 12
    const auto s = workload::gaussian_cloud(rng, n, d);
    const auto ds = delta_star_2(s, f);
    // Conjectured bound in terms of all honest subsets.
    const double denom = static_cast<double>(n / f) - 2.0;
    if (denom <= 0) continue;
    // Worst case over every choice of f faulty ids is expensive; use the
    // weaker all-inputs edge bound, which upper-bounds every honest E+.
    const auto ee = edge_extremes(s);
    EXPECT_LT(ds.value, ee.max_edge / denom) << "n=" << n;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace rbvc
