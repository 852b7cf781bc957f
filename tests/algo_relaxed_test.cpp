// End-to-end tests for ALGO (paper Sec. 9): agreement plus the Theorem 9 /
// Theorem 12 delta bounds under live Byzantine behavior.
#include "consensus/algo_relaxed.h"

#include <gtest/gtest.h>

#include "consensus/verifier.h"
#include "geometry/simplex_geometry.h"
#include "workload/generators.h"
#include "workload/runner.h"

namespace rbvc::consensus {
namespace {

// gtest names each case after the raw bytes of its parameter, so AlgoCase
// has no implicit padding: the four bytes after the strategy are a named,
// zeroed member instead of indeterminate ones.
struct AlgoCase {
  AlgoCase(workload::SyncStrategy s, std::uint64_t sd)
      : strategy(s), seed(sd) {}
  workload::SyncStrategy strategy;
  std::uint32_t zero_pad = 0;
  std::uint64_t seed;
};

class AlgoStrategySweep : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AlgoStrategySweep, Thm9BoundHolds) {
  // n = d+1 = 5, f = 1: ALGO must agree, and the achieved delta must be
  // within min(min-edge/2, max-edge/(n-2)) of the honest inputs (Thm 9).
  const auto param = GetParam();
  Rng rng(param.seed);
  workload::SyncExperiment e;
  e.n = 5;
  e.f = 1;
  e.honest_inputs = workload::gaussian_cloud(rng, 4, 4);
  e.byzantine_ids = {2};
  e.strategy = param.strategy;
  e.decision = algo_decision(1);
  e.seed = rng.next_u64();
  const auto out = run_sync_experiment(e);
  ASSERT_FALSE(out.decision_failed);
  ASSERT_EQ(out.decisions.size(), 4u);
  EXPECT_TRUE(check_agreement(out.decisions).identical);

  const auto ee = edge_extremes(out.honest_inputs);
  const double bound = std::min(ee.min_edge / 2.0,
                                ee.max_edge / static_cast<double>(e.n - 2));
  EXPECT_LT(delta_p_validity_excess(out.decisions, out.honest_inputs, bound,
                                    2.0),
            1e-6)
      << workload::to_string(param.strategy);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AlgoStrategySweep,
    ::testing::Values(AlgoCase{workload::SyncStrategy::kSilent, 401},
                      AlgoCase{workload::SyncStrategy::kEquivocate, 402},
                      AlgoCase{workload::SyncStrategy::kLyingRelay, 403},
                      AlgoCase{workload::SyncStrategy::kOutlierInput, 404},
                      AlgoCase{workload::SyncStrategy::kEquivocate, 405},
                      AlgoCase{workload::SyncStrategy::kOutlierInput, 406}),
    [](const auto& info) {
      std::string name = workload::to_string(info.param.strategy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.param.seed);
    });

TEST(AlgoTest, DecisionMatchesDeltaStar) {
  Rng rng(409);
  const auto s = workload::random_simplex(rng, 3);
  const Vec p = algo_decision(1)(s);
  const auto ds = delta_star_2(s, 1);
  EXPECT_EQ(p, ds.point);
}

TEST(AlgoTest, WorksWithNoActualFaults) {
  // All n processes honest (f budget unused): output still valid and agreed.
  Rng rng(419);
  workload::SyncExperiment e;
  e.n = 4;
  e.f = 1;
  e.honest_inputs = workload::gaussian_cloud(rng, 4, 3);
  e.byzantine_ids = {};
  e.strategy = workload::SyncStrategy::kSilent;
  e.decision = algo_decision(1);
  const auto out = run_sync_experiment(e);
  ASSERT_EQ(out.decisions.size(), 4u);
  EXPECT_TRUE(check_agreement(out.decisions).identical);
  // With all-honest inputs, the multiset is the honest inputs themselves;
  // validity excess is bounded by the Thm 9 budget.
  const auto ee = edge_extremes(out.honest_inputs);
  const double bound = std::min(ee.min_edge / 2.0, ee.max_edge / 2.0);
  EXPECT_LT(delta_p_validity_excess(out.decisions, out.honest_inputs, bound,
                                    2.0),
            1e-6);
}

TEST(AlgoTest, Thm12BoundForFTwo) {
  // f = 2, d = 3, n = (d+1)f = 8: delta must be < max-edge/(d-1) (Thm 12).
  Rng rng(421);
  workload::SyncExperiment e;
  e.n = 8;
  e.f = 2;
  e.honest_inputs = workload::gaussian_cloud(rng, 6, 3);
  e.byzantine_ids = {1, 6};
  e.strategy = workload::SyncStrategy::kEquivocate;
  e.decision = algo_decision(2);
  const auto out = run_sync_experiment(e);
  ASSERT_FALSE(out.decision_failed);
  EXPECT_TRUE(check_agreement(out.decisions).identical);
  const auto ee = edge_extremes(out.honest_inputs);
  EXPECT_LT(delta_p_validity_excess(out.decisions, out.honest_inputs,
                                    ee.max_edge / 2.0, 2.0),
            1e-5);
}

TEST(AlgoTest, LinfVariantValidity) {
  Rng rng(431);
  workload::SyncExperiment e;
  e.n = 5;
  e.f = 1;
  e.honest_inputs = workload::gaussian_cloud(rng, 4, 4);
  e.byzantine_ids = {0};
  e.strategy = workload::SyncStrategy::kOutlierInput;
  e.decision = algo_decision_linear(1, kInfNorm);
  const auto out = run_sync_experiment(e);
  ASSERT_FALSE(out.decision_failed);
  EXPECT_TRUE(check_agreement(out.decisions).identical);
  // delta*_inf <= delta*_2 < min-edge/2 by Thm 9 + norm ordering.
  const auto ee = edge_extremes(out.honest_inputs);
  EXPECT_LT(delta_p_validity_excess(out.decisions, out.honest_inputs,
                                    ee.min_edge / 2.0, kInfNorm),
            1e-6);
}

TEST(AlgoTest, DegenerateHonestInputsGiveExactValidity) {
  // Theorem 8: affinely dependent inputs -> delta* = 0 -> exact validity.
  Rng rng(433);
  workload::SyncExperiment e;
  e.n = 5;
  e.f = 1;
  e.honest_inputs = workload::degenerate_subspace(rng, 4, 5, 2);
  e.byzantine_ids = {4};
  e.strategy = workload::SyncStrategy::kSilent;
  e.decision = algo_decision(1);
  const auto out = run_sync_experiment(e);
  ASSERT_FALSE(out.decision_failed);
  // Silent Byzantine resolves to the zero default; the multiset S is then
  // 4 coplanar points + origin. delta* may be nonzero if the origin is off
  // the plane -- but validity within the Thm 9 budget must still hold.
  const auto ee = edge_extremes(out.honest_inputs);
  const double bound = std::min(ee.min_edge / 2.0,
                                ee.max_edge / static_cast<double>(e.n - 2));
  EXPECT_LT(delta_p_validity_excess(out.decisions, out.honest_inputs, bound,
                                    2.0),
            1e-6);
}

}  // namespace
}  // namespace rbvc::consensus
