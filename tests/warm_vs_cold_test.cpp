// delta*_1 / delta*_inf (one cold LP with delta as a column) must match a
// cold per-probe bisection of the same LP, and geometry results must be
// bitwise-deterministic regardless of earlier calls on the thread or
// executor width (DESIGN.md "Cold LPs and history-free entry points").
#include <gtest/gtest.h>

#include "exec/parallel_executor.h"
#include "hull/delta_star.h"
#include "sim/rng.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

// The reference delta*_p: bisection on delta with a fresh cold feasibility
// LP per probe.
double cold_bisection(const std::vector<Vec>& s, std::size_t f, double p) {
  double lo = 0.0;
  double hi = gamma_excess(mean(s), s, f, p);
  const double scale = std::max(1.0, hi);
  while (hi - lo > kTol * scale) {
    const double mid = 0.5 * (lo + hi);
    if (gamma_delta_point_linear(s, f, mid, p)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

void expect_matches_cold_bisection(const std::vector<Vec>& s, std::size_t f,
                                   double p) {
  const auto r = delta_star_linear(s, f, p);
  const double ref = cold_bisection(s, f, p);
  EXPECT_NEAR(r.value, ref, 1e-6 * std::max(1.0, ref)) << "p=" << p;
  EXPECT_LE(gamma_excess(r.point, s, f, p), r.value + 1e-9) << "p=" << p;
  EXPECT_FALSE(gamma_delta_point_linear(s, f, r.value * (1.0 - 1e-6), p))
      << "p=" << p;
}

TEST(WarmVsColdTest, DeltaStarMatchesManualColdBisection) {
  Rng rng(9031);
  for (int rep = 0; rep < 3; ++rep) {
    const auto s = workload::random_simplex(rng, 3);
    for (double p : {1.0, kInfNorm}) expect_matches_cold_bisection(s, 1, p);
  }
  // Gaussian draws at f = 2 on which a warm-started bisection over the same
  // LP's right-hand side settled on a wrong delta (0.286270193 instead of
  // 0.0857782 for Linf, 0.178983464 instead of 0.178840883 for L1).
  const std::vector<Vec> linf_case = {
      {-0.79183022073275688, 0.39103772087975741, -0.42065040005957943},
      {-2.7407435341623096, 0.043645778847237332, -0.68707361187660043},
      {-0.40619732145131593, -0.75909244333758374, -0.022215023269684425},
      {-0.55801000449105287, 0.40815886964696974, -1.530252274471978},
      {-0.30229971525471661, 0.95881968155383712, -1.1804006102350482},
      {-0.35237607658621783, 1.1167208128438746, -0.90482977371774487},
      {-0.28489971227028166, 0.40932997781386549, -0.048260645488464357}};
  expect_matches_cold_bisection(linf_case, 2, kInfNorm);
  const std::vector<Vec> l1_case = {
      {0.40435915933753747, -0.70939276314271427, 0.10245939061290681},
      {0.43362911033741042, 0.64384466758411452, 0.3764809989925918},
      {-0.53239442902360612, 1.7796801897761261, 0.17070792894651513},
      {0.95687668110451574, 1.1321481774928379, -0.0048289831206529809},
      {-1.8645438335423385, -0.78304509238759956, 1.2015527256941474},
      {-2.1980108517716084, 0.65153206470321068, -1.2071598156167451}};
  expect_matches_cold_bisection(l1_case, 2, 1.0);
}

TEST(WarmVsColdTest, ResultsIndependentOfWorkspaceHistory) {
  Rng rng(9041);
  const auto s = workload::random_simplex(rng, 4);
  const auto other = workload::gaussian_cloud(rng, 7, 3);

  const auto r2a = delta_star_2(s, 1);
  const auto rla = delta_star_linear(s, 1, kInfNorm);
  // Pollute the thread-local workspace with unrelated queries...
  (void)delta_star_linear(other, 2, 1.0);
  (void)delta_star_2(other, 2);
  (void)gamma_excess(mean(other), other, 1, kInfNorm);
  // ...and recompute: bitwise-identical results (the verification-by-
  // recomputation paths depend on this).
  const auto r2b = delta_star_2(s, 1);
  const auto rlb = delta_star_linear(s, 1, kInfNorm);
  EXPECT_EQ(r2a.value, r2b.value);
  EXPECT_EQ(r2a.point, r2b.point);
  EXPECT_EQ(rla.value, rlb.value);
  EXPECT_EQ(rla.point, rlb.point);
}

TEST(WarmVsColdTest, DeterministicAcrossExecutorWidths) {
  // Same episodes, jobs=1 (inline) vs jobs=4 (worker threads, one
  // thread-local workspace each): bitwise-identical per-episode results.
  constexpr std::size_t kEpisodes = 12;
  auto run = [&](std::size_t jobs) {
    std::vector<DeltaStarResult> out(kEpisodes);
    exec::ParallelExecutor pool(jobs);
    pool.parallel_for(kEpisodes, [&](std::size_t i) {
      Rng rng(1000 + 13 * static_cast<std::uint64_t>(i));
      const auto s = workload::random_simplex(rng, 3);
      out[i] = delta_star_linear(s, 1, i % 2 == 0 ? 1.0 : kInfNorm);
    });
    return out;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  for (std::size_t i = 0; i < kEpisodes; ++i) {
    EXPECT_EQ(serial[i].value, parallel[i].value) << "episode " << i;
    EXPECT_EQ(serial[i].point, parallel[i].point) << "episode " << i;
  }
}

}  // namespace
}  // namespace rbvc
