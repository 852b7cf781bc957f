// E14 -- Ablation of the geometry engines: the point-to-hull distance paths
// (Wolfe exact L2, LP exact L1/Linf, the general-p cutting planes with the
// box pinned at the point), the delta* paths (closed-form inradius vs the
// certified p = 2 cutting-plane solver vs the general-p one run at p = 2,
// the delta LP vs cold bisection), and the Psi encodings (halfplane fast
// path vs barycentric lambda-LP). Accuracy agreement is printed first;
// timings follow.
//
// The cutting-plane table sets two gauges that bench-smoke gates on:
// bench.delta_star2.max_gap (largest upper - lower) and
// bench.delta_star2.max_err (largest |upper - inradius| / max(1, inradius)).
#include "bench_util.h"

#include <chrono>
#include <cmath>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "hull/gamma.h"
#include "geometry/hull.h"
#include "hull/psi.h"
#include "obs/metrics.h"
#include "opt/outer_approx.h"
#include "workload/generators.h"

namespace {

using namespace rbvc;

// The bisection delta* algorithm: gamma precheck, then a fresh Gamma_delta
// LP built and cold-solved per bisection probe, starting from the
// gamma_excess of the mean. Kept here as the baseline the one-LP
// delta_star_linear is measured against.
double delta_star_linear_cold(const std::vector<Vec>& s, std::size_t f,
                              double p) {
  if (gamma_point(s, f)) return 0.0;
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

void report() {
  std::printf("E14: geometry-engine ablation (accuracy cross-checks)\n");

  {
    rbvc::bench::Table t({"d", "n", "Wolfe L2", "cuts L2 lower",
                          "cuts L2 upper", "rounds", "LP Linf",
                          "Wolfe-lower-bounds-Linf"});
    Rng rng(55);
    for (std::size_t d : {3u, 6u, 10u}) {
      const auto pts = workload::gaussian_cloud(rng, d + 3, d);
      const Vec u = scale(3.0, rng.normal_vec(d));
      const double w = detail::wolfe_min_norm(u, pts, kTol).distance;
      const OuterApproxResult cuts = certified_min_max_hull_distance_p(
          {pts}, 2.0, u,
          {Vec(pts.size(), 1.0 / static_cast<double>(pts.size()))}, kTol,
          /*pinned=*/true);
      const double li =
          detail::lp_projection_via_lp(u, pts, kInfNorm, kTol).distance;
      t.add_row({std::to_string(d), std::to_string(d + 3),
                 rbvc::bench::Table::num(w, 10),
                 rbvc::bench::Table::num(cuts.lower, 10),
                 rbvc::bench::Table::num(cuts.upper, 10),
                 std::to_string(cuts.rounds), rbvc::bench::Table::num(li),
                 li <= w + 1e-9 ? "yes" : "NO"});
    }
    t.print("Distance engines on identical instances");
  }

  {
    // Lemma 13: on the drop-1 views of a simplex, delta*_2 is the inradius.
    // The general-p solver runs at p = 2 and d = 7 only, for comparison.
    using clock = std::chrono::steady_clock;
    rbvc::bench::Table t({"d", "inradius (closed form)", "lower", "upper",
                          "rounds", "ms", "general-p at p=2"});
    Rng rng(66);
    double max_gap = 0.0;
    double max_err = 0.0;
    for (std::size_t d : {3u, 4u, 5u, 6u, 7u, 8u, 10u, 12u, 16u}) {
      const auto s = workload::random_simplex(rng, d);
      const double r = SimplexGeometry::build(s)->inradius();
      const auto t0 = clock::now();
      const OuterApproxResult oa =
          certified_min_max_hull_distance(drop_f_views(s, 1), mean(s));
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count();
      max_gap = std::max(max_gap, oa.upper - oa.lower);
      max_err = std::max(max_err,
                         std::abs(oa.upper - r) / std::max(1.0, r));
      std::string gp = "-";
      if (d == 7) {
        const auto views = drop_f_views(s, 1);
        const OuterApproxResult g = certified_min_max_hull_distance_p(
            views, 2.0, mean(s),
            std::vector<Vec>(views.size(), Vec(d, 1.0 / double(d))));
        gp = "[" + rbvc::bench::Table::num(g.lower, 12) + ", " +
             rbvc::bench::Table::num(g.upper, 12) + "]";
      }
      t.add_row({std::to_string(d), rbvc::bench::Table::num(r, 12),
                 rbvc::bench::Table::num(oa.lower, 12),
                 rbvc::bench::Table::num(oa.upper, 12),
                 std::to_string(oa.rounds), rbvc::bench::Table::num(ms),
                 gp});
    }
    t.print("delta*_2 closed form vs certified cutting planes");
    std::printf("max gap (upper - lower): %.3g   max |upper - inradius| / "
                "max(1, inradius): %.3g\n",
                max_gap, max_err);
    obs::global().gauge("bench.delta_star2.max_gap").set(max_gap);
    obs::global().gauge("bench.delta_star2.max_err").set(max_err);
  }

  {
    // The one-LP delta* vs the cold bisection baseline, sequential episodes
    // (the --jobs 1 configuration of the episode sweeps).
    constexpr std::size_t kEpisodes = 32;
    Rng rng(77);
    std::vector<std::vector<Vec>> episodes;
    episodes.reserve(kEpisodes);
    for (std::size_t i = 0; i < kEpisodes; ++i) {
      episodes.push_back(workload::random_simplex(rng, 4));
    }

    using clock = std::chrono::steady_clock;
    auto seconds = [](clock::duration dur) {
      return std::chrono::duration<double>(dur).count();
    };

    const auto cold_t0 = clock::now();
    double cold_acc = 0.0;
    for (const auto& s : episodes) {
      cold_acc += delta_star_linear_cold(s, 1, kInfNorm);
    }
    const double cold_s = seconds(clock::now() - cold_t0);

    const auto lp_t0 = clock::now();
    std::vector<DeltaStarResult> results;
    results.reserve(kEpisodes);
    double lp_acc = 0.0;
    for (const auto& s : episodes) {
      results.push_back(delta_star_linear(s, 1, kInfNorm));
      lp_acc += results.back().value;
    }
    const double lp_s = seconds(clock::now() - lp_t0);

    // Certify every witness with gamma_excess.
    double worst_slack = 0.0;
    for (std::size_t i = 0; i < kEpisodes; ++i) {
      worst_slack = std::max(
          worst_slack, gamma_excess(results[i].point, episodes[i], 1,
                                    kInfNorm) -
                           results[i].value);
    }

    rbvc::bench::Table t({"path", "episodes", "time (s)", "episodes/s"});
    t.add_row({"cold per-probe bisection", std::to_string(kEpisodes),
               rbvc::bench::Table::num(cold_s),
               rbvc::bench::Table::num(kEpisodes / cold_s)});
    t.add_row({"one LP", std::to_string(kEpisodes),
               rbvc::bench::Table::num(lp_s),
               rbvc::bench::Table::num(kEpisodes / lp_s)});
    t.print("delta* Linf episodes, --jobs 1");
    std::printf("one-LP speedup: %.2fx   |sum diff|: %.3g\n", cold_s / lp_s,
                std::abs(cold_acc - lp_acc));
    std::printf("gamma_excess witness check: max(excess - delta*) = %.3g\n",
                worst_slack);
  }
}

void BM_WolfeProjection(benchmark::State& state) {
  Rng rng(1);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto pts = workload::gaussian_cloud(rng, d + 4, d);
  const Vec u = scale(3.0, rng.normal_vec(d));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::wolfe_min_norm(u, pts, kTol).distance);
  }
}
BENCHMARK(BM_WolfeProjection)->Arg(3)->Arg(6)->Arg(12);

void BM_LpProjectionLinf(benchmark::State& state) {
  Rng rng(2);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto pts = workload::gaussian_cloud(rng, d + 4, d);
  const Vec u = scale(3.0, rng.normal_vec(d));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detail::lp_projection_via_lp(u, pts, kInfNorm, kTol).distance);
  }
}
BENCHMARK(BM_LpProjectionLinf)->Arg(3)->Arg(6)->Arg(12);

void BM_GeneralPProjection(benchmark::State& state) {
  Rng rng(3);
  const auto pts = workload::gaussian_cloud(rng, 10, 6);
  const Vec u = scale(3.0, rng.normal_vec(6));
  const double p = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(project_to_hull_p(u, pts, p).distance);
  }
}
BENCHMARK(BM_GeneralPProjection)->Arg(3)->Arg(4);

void BM_HullMembership(benchmark::State& state) {
  Rng rng(4);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto pts = workload::gaussian_cloud(rng, 2 * d, d);
  const Vec u = rng.normal_vec(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(in_hull(u, pts));
  }
}
BENCHMARK(BM_HullMembership)->Arg(3)->Arg(6)->Arg(12);

void BM_PsiHalfplanePath(benchmark::State& state) {
  Rng rng(5);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto y = workload::gaussian_cloud(rng, d + 2, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi_k_point(y, 1, 2).has_value());
  }
}
BENCHMARK(BM_PsiHalfplanePath)->Arg(3)->Arg(5)->Arg(7);

void BM_PsiLambdaPath(benchmark::State& state) {
  Rng rng(6);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto y = workload::gaussian_cloud(rng, d + 2, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi_k_point(y, 1, 3).has_value());
  }
}
BENCHMARK(BM_PsiLambdaPath)->Arg(3)->Arg(5);

void BM_DeltaStarLinfLp(benchmark::State& state) {
  Rng rng(8);
  const auto s = workload::random_simplex(
      rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_linear(s, 1, kInfNorm).value);
  }
}
BENCHMARK(BM_DeltaStarLinfLp)->Arg(3)->Arg(5)->Arg(7);

void BM_DeltaStarLinfColdBisection(benchmark::State& state) {
  Rng rng(8);
  const auto s = workload::random_simplex(
      rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_linear_cold(s, 1, kInfNorm));
  }
}
BENCHMARK(BM_DeltaStarLinfColdBisection)->Arg(3)->Arg(5)->Arg(7);

void BM_SimplexInradius(benchmark::State& state) {
  Rng rng(7);
  const auto s = workload::random_simplex(
      rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimplexGeometry::build(s)->inradius());
  }
}
BENCHMARK(BM_SimplexInradius)->Arg(3)->Arg(8)->Arg(16);

}  // namespace

RBVC_BENCH_MAIN(report)
