// E1 / E2 -- Paper Table 1 ("Summary of upper bounds", Sec. 9.2.3):
//
//   f = 1, n = d+1      delta* < min( min-edge(E+)/2, max-edge(E+)/(n-2) )
//   f >= 2, n = (d+1)f  delta* < max-edge(E+)/(d-1)
//
// We regenerate the table empirically: sample random inputs, compute
// delta*(S) (exact inradius path for the simplex case, the certified
// cutting-plane solver otherwise), and report the worst observed ratio
// delta*/bound -- the paper predicts every ratio stays below 1.
#include "bench_util.h"

#include <cmath>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "workload/generators.h"

namespace {

using namespace rbvc;

double worst_honest_bound_f1(const std::vector<Vec>& s) {
  // min over faulty choices of min(min-edge(E+)/2, max-edge(E+)/(n-2)).
  double worst = kInfNorm;
  const std::size_t n = s.size();
  for (std::size_t faulty = 0; faulty < n; ++faulty) {
    std::vector<Vec> honest;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != faulty) honest.push_back(s[i]);
    }
    const auto ee = edge_extremes(honest);
    worst = std::min(worst, std::min(ee.min_edge / 2.0,
                                     ee.max_edge / double(n - 2)));
  }
  return worst;
}

double worst_honest_maxedge(const std::vector<Vec>& s, std::size_t f) {
  // min over faulty index sets of max-edge(E+): brute force for f <= 2.
  const std::size_t n = s.size();
  double worst = kInfNorm;
  if (f == 1) {
    for (std::size_t a = 0; a < n; ++a) {
      std::vector<Vec> honest;
      for (std::size_t i = 0; i < n; ++i) {
        if (i != a) honest.push_back(s[i]);
      }
      worst = std::min(worst, edge_extremes(honest).max_edge);
    }
    return worst;
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      std::vector<Vec> honest;
      for (std::size_t i = 0; i < n; ++i) {
        if (i != a && i != b) honest.push_back(s[i]);
      }
      worst = std::min(worst, edge_extremes(honest).max_edge);
    }
  }
  return worst;
}

void report() {
  std::printf("E1/E2: paper Table 1 -- input-dependent delta upper bounds\n");
  std::printf("(every ratio delta*/bound must be < 1)\n");

  // --- Row 1, f = 1, n = d+1 (Theorem 9, exact inradius path). ---
  {
    rbvc::bench::Table t({"d", "n", "reps", "mean delta*", "max ratio",
                          "bound form"});
    Rng rng(2024);
    for (std::size_t d = 3; d <= 8; ++d) {
      const int reps = 40;
      double sum = 0.0, max_ratio = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto s = workload::random_simplex(rng, d);
        const auto ds = delta_star_2(s, 1);
        sum += ds.value;
        max_ratio = std::max(max_ratio, ds.value / worst_honest_bound_f1(s));
      }
      t.add_row({std::to_string(d), std::to_string(d + 1),
                 std::to_string(reps), rbvc::bench::Table::num(sum / reps),
                 rbvc::bench::Table::num(max_ratio),
                 "min(minE+/2, maxE+/(n-2))"});
    }
    t.print("Theorem 9: f=1, n=d+1 (random simplices)");
  }

  // --- Row 1, f >= 2, n = (d+1)f (Theorem 12, cutting-plane path). ---
  {
    rbvc::bench::Table t({"d", "f", "n", "reps", "mean delta*", "max ratio",
                          "bound form"});
    Rng rng(4048);
    struct Case {
      std::size_t d, f;
    };
    for (const auto c : {Case{3, 2}, Case{4, 2}, Case{3, 3}}) {
      const std::size_t n = (c.d + 1) * c.f;
      const int reps = 6;
      for (const char* wl : {"gaussian", "dup-simplex"}) {
        double sum = 0.0, max_ratio = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
          // Duplicated-simplex inputs are the tight instance: Gamma is
          // empty by construction, so delta* is genuinely positive.
          const auto s = (wl[0] == 'g')
                             ? workload::gaussian_cloud(rng, n, c.d)
                             : workload::duplicated_simplex(rng, c.d, c.f);
          const auto ds = delta_star_2(s, c.f);
          sum += ds.value;
          const double bound =
              worst_honest_maxedge(s, c.f) / double(c.d - 1);
          max_ratio = std::max(max_ratio, ds.value / bound);
        }
        t.add_row({std::to_string(c.d), std::to_string(c.f),
                   std::to_string(n) + " " + wl, std::to_string(reps),
                   rbvc::bench::Table::num(sum / reps),
                   rbvc::bench::Table::num(max_ratio), "maxE+/(d-1)"});
      }
    }
    t.print("Theorem 12: f>=2, n=(d+1)f (random clouds + tight instances)");
  }

  // --- Degenerate inputs (Theorem 8): delta* = 0. ---
  {
    rbvc::bench::Table t({"d", "n", "subspace dim", "delta*", "method"});
    Rng rng(8086);
    for (std::size_t sub : {2u, 3u}) {
      const auto s = workload::degenerate_subspace(rng, 6, 6, sub);
      const auto ds = delta_star_2(s, 1);
      t.add_row({"6", "6", std::to_string(sub),
                 rbvc::bench::Table::num(ds.value),
                 ds.method == DeltaStarResult::Method::kGammaNonempty
                     ? "Gamma nonempty"
                     : "other"});
    }
    t.print("Theorem 8: affinely dependent inputs -> delta* = 0");
  }
}

void BM_DeltaStarSimplex(benchmark::State& state) {
  Rng rng(1);
  const auto s = workload::random_simplex(rng, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_2(s, 1).value);
  }
}
BENCHMARK(BM_DeltaStarSimplex)->Arg(3)->Arg(5)->Arg(8)->Arg(12);

void BM_DeltaStarNumerical(benchmark::State& state) {
  Rng rng(2);
  const std::size_t f = 2, d = 3;
  const auto s = workload::gaussian_cloud(rng, (d + 1) * f, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_2(s, f).value);
  }
}
BENCHMARK(BM_DeltaStarNumerical);

}  // namespace

RBVC_BENCH_MAIN(report)
