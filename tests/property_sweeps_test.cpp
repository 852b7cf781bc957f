// Parameterized property sweeps across dimensions, fault counts, seeds, and
// workload shapes -- the "fuzzing" layer on top of the targeted unit tests.
#include <gtest/gtest.h>

#include "consensus/verifier.h"
#include "geometry/simplex_geometry.h"
#include "harness/property.h"
#include "hull/delta_star.h"
#include "hull/psi.h"
#include "workload/adversarial_inputs.h"
#include "workload/generators.h"
#include "workload/runner.h"

namespace rbvc {
namespace {

// --------------------------------------------------------------------------
// Sweep 1: delta* bounds across (d, seed).
// --------------------------------------------------------------------------

struct DimSeed {
  std::size_t d;
  std::uint64_t seed;
};

class DeltaStarSweep : public ::testing::TestWithParam<DimSeed> {};

TEST_P(DeltaStarSweep, SimplexBoundsAndWitness) {
  const auto [d, seed] = GetParam();
  Rng rng(seed);
  const auto s = workload::random_simplex(rng, d);
  const auto ds = delta_star_2(s, 1);
  const auto ee = edge_extremes(s);
  EXPECT_LT(ds.value, ee.min_edge / 2.0);
  EXPECT_LT(ds.value, ee.max_edge / static_cast<double>(d - 1));
  EXPECT_NEAR(gamma_excess(ds.point, s, 1, 2.0), ds.value, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, DeltaStarSweep,
    ::testing::Values(DimSeed{3, 1}, DimSeed{3, 2}, DimSeed{3, 3},
                      DimSeed{4, 4}, DimSeed{4, 5}, DimSeed{5, 6},
                      DimSeed{5, 7}, DimSeed{6, 8}, DimSeed{7, 9},
                      DimSeed{8, 10}),
    [](const auto& info) {
      return "d" + std::to_string(info.param.d) + "_s" +
             std::to_string(info.param.seed);
    });

// --------------------------------------------------------------------------
// Sweep 2: relaxed hull containment chain over workload shapes.
// --------------------------------------------------------------------------

// 64-bit so ShapeSeed has no padding: gtest names each case after the raw
// bytes of its parameter, and padding bytes are indeterminate.
enum class Shape : std::uint64_t {
  kGaussian,
  kSphere,
  kClustered,
  kDegenerate
};

struct ShapeSeed {
  Shape shape;
  std::uint64_t seed;
};

std::vector<Vec> make_shape(Shape shape, Rng& rng, std::size_t n,
                            std::size_t d) {
  switch (shape) {
    case Shape::kGaussian:
      return workload::gaussian_cloud(rng, n, d);
    case Shape::kSphere:
      return workload::sphere_points(rng, n, d);
    case Shape::kClustered:
      return workload::clustered(rng, n, d, 4.0);
    case Shape::kDegenerate:
      return workload::degenerate_subspace(rng, n, d, 2);
  }
  return {};
}

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kGaussian:
      return "gaussian";
    case Shape::kSphere:
      return "sphere";
    case Shape::kClustered:
      return "clustered";
    case Shape::kDegenerate:
      return "degenerate";
  }
  return "unknown";
}

class HullChainSweep : public ::testing::TestWithParam<ShapeSeed> {};

TEST_P(HullChainSweep, ContainmentChainHolds) {
  const auto [shape, seed] = GetParam();
  Rng rng(seed);
  const std::size_t d = 4, n = 6;
  const auto s = make_shape(shape, rng, n, d);
  for (int rep = 0; rep < 10; ++rep) {
    const Vec u = scale(1.5, rng.normal_vec(d));
    // Lemma 1 chain: membership at larger k implies membership at smaller.
    bool prev = in_k_relaxed_hull(u, s, d);
    for (std::size_t k = d - 1; k >= 1; --k) {
      const bool cur = in_k_relaxed_hull(u, s, k);
      if (prev) {
        EXPECT_TRUE(cur) << "k=" << k;
      }
      prev = cur;
    }
    // (delta,p) chain across delta.
    const double dist = hull_distance(u, s, 2.0);
    EXPECT_TRUE(in_delta_p_hull(u, s, dist + 1e-6, 2.0));
    if (dist > 1e-6) {
      EXPECT_FALSE(in_delta_p_hull(u, s, dist * 0.9 - 1e-9, 2.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HullChainSweep,
    ::testing::Values(ShapeSeed{Shape::kGaussian, 21},
                      ShapeSeed{Shape::kGaussian, 22},
                      ShapeSeed{Shape::kSphere, 23},
                      ShapeSeed{Shape::kSphere, 24},
                      ShapeSeed{Shape::kClustered, 25},
                      ShapeSeed{Shape::kDegenerate, 26}),
    [](const auto& info) {
      return std::string(shape_name(info.param.shape)) + "_s" +
             std::to_string(info.param.seed);
    });

// --------------------------------------------------------------------------
// Sweep 3: ALGO end-to-end over (strategy, faulty id, seed), on the
// check_property harness: a failing draw is shrunk and written as a repro
// file, and RBVC_FUZZ_EPISODES scales the sweep for nightly runs. The
// oracle checks the *paper's* Theorem 9 budget min(min_edge/2,
// max_edge/(n-2)), tighter than the stock oracle's kappa-diameter envelope.
// --------------------------------------------------------------------------

TEST(AlgoEndToEndSweep, AgreementAndBoundedValidity) {
  harness::SyncProperty prop;
  prop.name = "algo_end_to_end_thm9";
  prop.generate = [](Rng& rng) {
    workload::SyncExperiment e;
    e.n = 5;
    e.f = 1;
    e.honest_inputs = workload::gaussian_cloud(rng, 4, 4);
    e.byzantine_ids = {rng.below(e.n)};
    constexpr workload::SyncStrategy strategies[] = {
        workload::SyncStrategy::kSilent, workload::SyncStrategy::kEquivocate,
        workload::SyncStrategy::kLyingRelay,
        workload::SyncStrategy::kOutlierInput};
    e.strategy = strategies[rng.below(4)];
    e.rule = workload::SyncRule::kAlgoRelaxed;  // serializable for repros
    e.seed = rng.next_u64();
    return e;
  };
  prop.oracle = [](const workload::SyncExperiment& e,
                   const workload::SyncOutcome& out) -> std::string {
    if (out.decision_failed) {
      return "decision rule failed: " + out.failure;
    }
    if (!check_agreement(out.decisions).identical) {
      return "agreement: decisions are not bitwise identical";
    }
    const auto ee = edge_extremes(out.honest_inputs);
    const double bound = std::min(
        ee.min_edge / 2.0, ee.max_edge / static_cast<double>(e.n - 2));
    const double excess =
        delta_p_validity_excess(out.decisions, out.honest_inputs, bound, 2.0);
    if (excess > 1e-6) {
      return "Theorem 9 validity: decision leaves the budget-" +
             std::to_string(bound) + " hull by " + std::to_string(excess);
    }
    return "";
  };
  prop.episodes = harness::fuzz_episodes(8);
  prop.repro_dir = ::testing::TempDir();
  const auto res = harness::check_property<harness::SyncRunner>(prop);
  EXPECT_TRUE(res.passed) << harness::describe(res);
}

// --------------------------------------------------------------------------
// Sweep 4: Psi_k feasibility frontier over n for the Thm 3 family.
// --------------------------------------------------------------------------

class PsiFrontierSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PsiFrontierSweep, AdversarialEmptyControlNonEmpty) {
  const std::size_t d = GetParam();
  const auto bad = workload::thm3_inputs(d, 1.0, 0.5);
  EXPECT_FALSE(psi_k_point(bad, 1, 2).has_value());
  Rng rng(d * 1000 + 7);
  const auto good = workload::gaussian_cloud(rng, d + 2, d);
  EXPECT_TRUE(psi_k_point(good, 1, 2).has_value());
}

INSTANTIATE_TEST_SUITE_P(Dims, PsiFrontierSweep,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rbvc
