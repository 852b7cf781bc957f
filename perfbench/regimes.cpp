// hull.regime.*: delta* latency per regime, from direct calls to
// delta_star_2 / delta_star_linear on point sets drawn from the run's seed
// to land in each regime. d=3 is measured only here: the d=3 sweeps are too
// slow for a run. The numerical-L2 calls use the minimax budget the Relaxed
// Verified Averaging rule uses, so they match the sweep's delta* path.
#include "bench.h"
#include "consensus/async_averaging.h"
#include "hull/delta_star.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using Method = rbvc::DeltaStarResult::Method;

constexpr double kBudgetS = 0.25;   // per (regime, d) cell
constexpr std::size_t kMinCalls = 3;
constexpr std::size_t kMaxCalls = 200;
constexpr std::size_t kMaxMisses = 1000;

struct Regime {
  const char* name;
  std::size_t f;
  bool linf;
  Method expect;
  std::size_t (*points)(std::size_t d);
};

// |S| = (d+1)f+1 with f=1: Gamma is non-empty (Radon). |S| = d+1 with f=1:
// a full simplex, delta* = inradius (Lemma 13). |S| = 2d+1 with f=2: below
// (d+1)f+1, so Gamma is empty and delta* goes numerical, as in the sweeps.
const Regime kRegimes[] = {
    {"gamma_nonempty", 1, false, Method::kGammaNonempty,
     [](std::size_t d) { return d + 2; }},
    {"simplex_inradius", 1, false, Method::kSimplexInradius,
     [](std::size_t d) { return d + 1; }},
    {"numerical_l2", 2, false, Method::kNumerical,
     [](std::size_t d) { return 2 * d + 1; }},
    {"bisection_linf", 2, true, Method::kNumerical,
     [](std::size_t d) { return 2 * d + 1; }},
};

}  // namespace

void add_regime_metrics(const Options& opt, Report& rep) {
  const rbvc::MinimaxOptions minimax =
      rbvc::consensus::AsyncAveragingProcess::Params{}.minimax;
  rbvc::Rng rng(rbvc::seed_sequence(opt.seed, 0x7e91));
  std::string summary;
  for (const Regime& g : kRegimes) {
    for (const std::size_t d : {std::size_t{2}, std::size_t{3}}) {
      std::vector<double> us;
      std::size_t misses = 0;
      const std::int64_t start = now_ns();
      while (us.size() < kMaxCalls && misses < kMaxMisses &&
             (us.size() < kMinCalls ||
              seconds_between(start, now_ns()) < kBudgetS)) {
        std::vector<rbvc::Vec> s(g.points(d));
        for (rbvc::Vec& v : s) v = rng.uniform_vec(d, -1.0, 1.0);
        const std::int64_t t0 = now_ns();
        const rbvc::DeltaStarResult r =
            g.linf ? rbvc::delta_star_linear(s, g.f, rbvc::kInfNorm)
                   : rbvc::delta_star_2(s, g.f, rbvc::kTol, minimax);
        const std::int64_t t1 = now_ns();
        if (r.method != g.expect) {
          ++misses;
          continue;
        }
        us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
      const std::string name = fmt("hull.regime.%s.d%zu.p50_us", g.name, d);
      rep.set(name, percentile(us, 0.5));
      summary += fmt(" %s.d%zu=%.1fus(n=%zu,%zu other)", g.name, d,
                     rep.values[name], us.size(), misses);
      if (us.size() < kMinCalls) {
        rep.note(fmt("WARNING: %s reached by only %zu draws", name.c_str(),
                     us.size()));
      }
    }
  }
  rep.note("delta* per regime, p50 of direct calls:" + summary);
}

}  // namespace perfbench
