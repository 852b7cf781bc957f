// E4 -- Theorem 14 / Conjecture 3: how delta* scales with the norm order p.
//
// For f = 1, n = d+1 random simplices the paper gives
//   delta*_p <= delta*_2 < kappa(n,f,d,2) max-edge_2
// and Theorem 14 converts the L2 bound to Lp with the factor d^(1/2-1/p).
// The table reports delta*_p across p together with both bound forms; the
// "shape" claim is monotone decrease in p and ratios below 1.
//
// Every delta*_p here is a certified interval [lower, upper], so the
// per-instance monotone check needs no tolerance: it reads NO only when a
// lower bound at some p' > p exceeds the upper bound at p on the same draw
// (p = 2 included, so that also covers lower_p > delta*_2's upper). Two
// gauges carry this for CI: bench.delta_star_p.order_violations (the count
// of such pairs, gated at 0) and bench.delta_star_p.max_gap (the largest
// upper - lower of a general-p call).
#include "bench_util.h"

#include <cmath>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "workload/generators.h"

namespace {

using namespace rbvc;

void report() {
  std::printf("E4: Lp-norm scaling of delta* (Theorem 14)\n");
  rbvc::bench::Table t({"d", "p", "mean delta*_p", "mean delta*_2",
                        "max ratio vs Thm14 bound", "max gap",
                        "monotone in p"});
  const double ps[] = {2.0, 3.0, 4.0, kInfNorm};
  constexpr std::size_t kNumP = sizeof(ps) / sizeof(ps[0]);
  constexpr int kReps = 10;
  double max_gap = 0.0;
  std::size_t violations = 0;
  for (std::size_t d : {3u, 4u, 5u}) {
    // Identical simplices for every p via a fixed per-d seed.
    Rng local(d * 977);
    std::vector<std::vector<Vec>> draws;
    std::vector<DeltaStarResult> d2;
    std::vector<std::vector<DeltaStarResult>> dp(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      draws.push_back(workload::random_simplex(local, d));
      d2.push_back(delta_star_2(draws.back(), 1));
      for (double p : ps) dp[rep].push_back(delta_star_p(draws.back(), 1, p));
    }
    for (std::size_t pi = 0; pi < kNumP; ++pi) {
      const double p = ps[pi];
      double sum_p = 0.0, sum_2 = 0.0, max_ratio = 0.0, row_gap = 0.0;
      bool monotone = true;
      for (int rep = 0; rep < kReps; ++rep) {
        const DeltaStarResult& r = dp[rep][pi];
        sum_p += r.value;
        sum_2 += d2[rep].value;
        row_gap = std::max(row_gap, r.value - r.lower);
        // Theorem 14: delta*_p < d^(1/2-1/p) kappa maxedge_p with
        // kappa = 1/(n-2) = 1/(d-1) (Theorem 9's second bound).
        const double factor = (p >= kInfNorm)
                                  ? std::sqrt(double(d))
                                  : std::pow(double(d), 0.5 - 1.0 / p);
        const double bound = factor *
                             edge_extremes(draws[rep], p).max_edge /
                             double(d - 1);
        max_ratio = std::max(max_ratio, r.value / bound);
        for (std::size_t qi = 0; qi < pi; ++qi) {
          if (r.lower > dp[rep][qi].value) {
            monotone = false;
            ++violations;
          }
        }
      }
      if (p != 2.0 && p < kInfNorm) max_gap = std::max(max_gap, row_gap);
      t.add_row({std::to_string(d),
                 p >= kInfNorm ? "inf" : rbvc::bench::Table::num(p, 2),
                 rbvc::bench::Table::num(sum_p / kReps),
                 rbvc::bench::Table::num(sum_2 / kReps),
                 rbvc::bench::Table::num(max_ratio),
                 rbvc::bench::Table::num(row_gap, 2),
                 monotone ? "yes" : "NO"});
    }
  }
  t.print("delta*_p across p (f=1, n=d+1 random simplices)");
  std::printf(
      "\nNote: delta*_p is non-increasing in p (norm ordering); all ratios\n"
      "stay below 1, matching Theorem 14's scaled bound.\n"
      "general-p max gap (upper - lower): %.3g   order violations: %zu\n",
      max_gap, violations);
  obs::global().gauge("bench.delta_star_p.max_gap").set(max_gap);
  obs::global()
      .gauge("bench.delta_star_p.order_violations")
      .set(static_cast<double>(violations));
}

void BM_DeltaStarByNorm(benchmark::State& state) {
  Rng rng(6);
  const auto s = workload::random_simplex(rng, 4);
  const double p = state.range(0) == 0 ? kInfNorm
                                       : static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_p(s, 1, p).value);
  }
}
BENCHMARK(BM_DeltaStarByNorm)->Arg(1)->Arg(2)->Arg(3)->Arg(0);

}  // namespace

RBVC_BENCH_MAIN(report)
