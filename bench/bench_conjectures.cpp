// E3 -- Empirical probe of Conjectures 1-3 (paper Sec. 9.2.2/9.3):
//
//   Conjecture 1: for 3f+1 <= n < (d+1)f,
//       delta*(S) < max-edge(E+) / (floor(n/f) - 2).
//   Conjecture 3: the Lp version with the d^(1/2-1/p) factor.
//
// For each grid point we sample random and clustered inputs, compute
// delta*(S) numerically, take the worst case over all C(n,f) faulty-set
// choices for E+, and report the maximum observed ratio. Ratios below 1
// are (empirical) support; a ratio above 1 would be a counterexample.
#include "bench_util.h"

#include <cmath>

#include "geometry/simplex_geometry.h"
#include "hull/delta_star.h"
#include "workload/generators.h"

namespace {

using namespace rbvc;

double worst_honest_maxedge(const std::vector<Vec>& s, std::size_t f,
                            double p) {
  const std::size_t n = s.size();
  double worst = kInfNorm;
  // Enumerate index subsets of size f (f <= 3 here).
  std::vector<std::size_t> comb(f);
  for (std::size_t i = 0; i < f; ++i) comb[i] = i;
  while (true) {
    std::vector<Vec> honest;
    for (std::size_t i = 0; i < n; ++i) {
      bool faulty = false;
      for (std::size_t c : comb) faulty = faulty || (c == i);
      if (!faulty) honest.push_back(s[i]);
    }
    worst = std::min(worst, edge_extremes(honest, p).max_edge);
    // next combination
    std::size_t i = f;
    while (i-- > 0) {
      if (comb[i] != i + n - f) {
        ++comb[i];
        for (std::size_t j = i + 1; j < f; ++j) comb[j] = comb[j - 1] + 1;
        break;
      }
      if (i == 0) return worst;
    }
  }
}

void report() {
  std::printf(
      "E3: Conjecture 1 probe -- delta* vs max-edge(E+)/(floor(n/f)-2)\n");
  {
    rbvc::bench::Table t(
        {"d", "f", "n", "workload", "reps", "max ratio", "verdict"});
    Rng rng(31337);
    struct Case {
      std::size_t d, f, n;
    };
    const Case cases[] = {
        {5, 2, 7},  {5, 2, 9},  {5, 2, 11}, {6, 2, 7},
        {6, 2, 10}, {4, 3, 10}, {4, 3, 11},
    };
    for (const auto& c : cases) {
      for (const char* wl : {"gaussian", "clustered"}) {
        const int reps = 5;
        double max_ratio = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
          const auto s = (wl[0] == 'g')
                             ? workload::gaussian_cloud(rng, c.n, c.d)
                             : workload::clustered(rng, c.n, c.d, 3.0);
          const auto ds = delta_star_2(s, c.f);
          const double denom = double(c.n / c.f) - 2.0;
          const double bound = worst_honest_maxedge(s, c.f, 2.0) / denom;
          max_ratio = std::max(max_ratio, ds.value / bound);
        }
        t.add_row({std::to_string(c.d), std::to_string(c.f),
                   std::to_string(c.n), wl, std::to_string(reps),
                   rbvc::bench::Table::num(max_ratio),
                   max_ratio < 1.0 ? "supports" : "COUNTEREXAMPLE?"});
      }
    }
    t.print("Conjecture 1: 3f+1 <= n < (d+1)f");
  }

  // Conjecture 3: Lp scaling, p in {3, 4}. delta*_p is a certified
  // interval, so the row's max ratio is one too: [max over draws of
  // lower / bound, max of upper / bound]. The verdict reads the upper end.
  {
    rbvc::bench::Table t({"d", "f", "n", "p", "max ratio", "ratio interval",
                          "closed", "verdict"});
    Rng rng(271828);
    for (double p : {3.0, 4.0}) {
      const std::size_t d = 5, f = 2, n = 9;
      const int reps = 4;
      double max_ratio = 0.0, max_lower_ratio = 0.0;
      int closed = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto s = workload::gaussian_cloud(rng, n, d);
        const auto ds = delta_star_p(s, f, p);
        const double denom = double(n / f) - 2.0;
        const double factor = std::pow(double(d), 0.5 - 1.0 / p);
        const double bound =
            factor * worst_honest_maxedge(s, f, p) / denom;
        max_ratio = std::max(max_ratio, ds.value / bound);
        max_lower_ratio = std::max(max_lower_ratio, ds.lower / bound);
        closed += ds.exact ? 1 : 0;
      }
      t.add_row({std::to_string(d), std::to_string(f), std::to_string(n),
                 rbvc::bench::Table::num(p, 2),
                 rbvc::bench::Table::num(max_ratio),
                 "[" + rbvc::bench::Table::num(max_lower_ratio) + ", " +
                     rbvc::bench::Table::num(max_ratio) + "]",
                 std::to_string(closed) + "/" + std::to_string(reps),
                 max_ratio < 1.0 ? "supports" : "COUNTEREXAMPLE?"});
    }
    t.print("Conjecture 3: Lp version with d^(1/2-1/p) factor");
  }
}

void BM_ConjectureGridPoint(benchmark::State& state) {
  Rng rng(5);
  const std::size_t d = 5, f = 2, n = static_cast<std::size_t>(state.range(0));
  const auto s = workload::gaussian_cloud(rng, n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_star_2(s, f).value);
  }
}
BENCHMARK(BM_ConjectureGridPoint)->Arg(7)->Arg(9)->Arg(11);

}  // namespace

RBVC_BENCH_MAIN(report)
