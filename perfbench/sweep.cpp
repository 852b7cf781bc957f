// Sweep workloads: check_property<AsyncRunner> over Relaxed Verified
// Averaging with n=7, f=2, d=2, R=4 and two kOutlierInput Byzantine
// processes, round-0 rule kRelaxedL2 (sweep-l2-f2) or kRelaxedLinf
// (sweep-linf-f2). The laggard scheduler delays the Byzantine processes, so
// every round-0 view holds the n-f=5 honest values: 5 points in 2-D are
// below the (d+1)f+1=7 points exact BVC needs, Gamma is empty, and every
// round-0 value and every verify-by-recompute runs the numerical delta*
// (minimax for p=2, the warm LP bisection for p=inf). Under the random
// scheduler many views hold all 7 values and Gamma is non-empty, which makes
// episode cost bimodal (per-episode CV 1.2 against 0.13 here) and a run of
// a few hundred episodes too unsteady to compare.
//
// A run is a sequence of check_property calls of a fixed episode count, each
// with its own base seed drawn from (--seed, stream, call index). The
// generate/oracle closures are the benchmark's own: they time each episode
// (generate start to oracle end) and, in traced runs, record the episode,
// generate and oracle spans.
#include <algorithm>
#include <map>
#include <mutex>

#include "bench.h"
#include "harness/property.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using rbvc::harness::AsyncProperty;

constexpr std::size_t kN = 7;
constexpr std::size_t kF = 2;
constexpr std::size_t kD = 2;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kWarmupEpisodes = 4;  // one per pool thread
constexpr int kSetups = 7;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;
// Tail percentile of episode latency: a run holds a few hundred episodes,
// so p90 keeps >= 10 samples beyond it.
constexpr double kTailQ = 0.90;

/// Episodes per check_property call: about two seconds of work at width 4,
/// so the end-of-call imbalance is a steady share of each call.
std::size_t episodes_per_call(bool linf) { return linf ? 192 : 16; }

/// Seed streams: set-up, untraced window and traced window draw from
/// separate streams, so the first traced call -- the exact-count pass -- runs
/// the same episodes however long the earlier phases took. Set-up draws
/// from a fixed seed: it is the same work in every run, so setup_s compares
/// across runs and commits.
enum class Stream : std::uint64_t { kSetup = 1, kWindow = 2, kTraced = 3 };
constexpr std::uint64_t kSetupSeed = 0;

std::uint64_t call_seed(std::uint64_t seed, Stream s, std::uint64_t call) {
  return rbvc::seed_sequence(
      rbvc::seed_sequence(seed, static_cast<std::uint64_t>(s)), call);
}

/// State the property closures share across pool threads during a phase.
struct CallContext {
  SpanLog* spans = nullptr;
  std::int32_t call_span = -1;
  // First draw of each episode's RNG stream -> episode index (the span
  // request id); rebuilt before each call, read-only during it.
  std::map<std::uint64_t, std::int64_t> episode_of;
  std::mutex mu;  // guards the tallies below
  std::vector<double> episode_ms;
  double generate_s = 0.0;
  double oracle_s = 0.0;
  double episode_s = 0.0;
};

/// The episode a pool thread is in, between generate and oracle.
struct EpisodeState {
  std::int64_t start_ns = 0;
  std::int64_t generate_ns = 0;
  std::int64_t request = -1;
  std::int32_t span = -1;
};
thread_local EpisodeState tl_episode;

AsyncProperty make_property(bool linf, CallContext& ctx) {
  AsyncProperty prop;
  prop.name = linf ? "perfbench_sweep_linf_f2" : "perfbench_sweep_l2_f2";
  prop.generate = [&ctx, linf](rbvc::Rng& rng) {
    EpisodeState& ep = tl_episode;
    ep.start_ns = now_ns();
    rbvc::Rng probe = rng;
    const auto it = ctx.episode_of.find(probe.next_u64());
    ep.request = it == ctx.episode_of.end() ? -1 : it->second;
    ep.span = ctx.spans ? ctx.spans->open(SpanKind::kEpisode, ep.start_ns,
                                          ep.request, ctx.call_span)
                        : -1;
    rbvc::workload::AsyncExperiment e;
    e.prm.n = kN;
    e.prm.f = kF;
    e.prm.rounds = kRounds;
    e.prm.rule =
        linf ? rbvc::consensus::AsyncAveragingProcess::Round0Rule::kRelaxedLinf
             : rbvc::consensus::AsyncAveragingProcess::Round0Rule::kRelaxedL2;
    e.d = kD;
    e.honest_inputs = rbvc::workload::gaussian_cloud(rng, kN - kF, kD);
    const std::size_t a = rng.below(kN);
    std::size_t b = rng.below(kN - 1);
    if (b >= a) ++b;
    e.byzantine_ids = {std::min(a, b), std::max(a, b)};
    e.strategy = rbvc::workload::AsyncStrategy::kOutlierInput;
    e.scheduler = rbvc::workload::SchedulerKind::kLaggard;
    e.seed = rng.next_u64();
    const std::int64_t t1 = now_ns();
    ep.generate_ns = t1 - ep.start_ns;
    if (ctx.spans) {
      ctx.spans->add(SpanKind::kGenerate, ep.start_ns, t1, ep.request, ep.span);
    }
    return e;
  };
  prop.oracle = [&ctx, inner = rbvc::harness::decide_agree_valid_oracle(
                           0.5, 1.0, linf ? rbvc::kInfNorm : 2.0)](
                    const rbvc::workload::AsyncExperiment& e,
                    const rbvc::workload::AsyncOutcome& out) {
    const std::int64_t t0 = now_ns();
    std::string verdict = inner(e, out);
    const std::int64_t t1 = now_ns();
    const EpisodeState& ep = tl_episode;
    if (ctx.spans) {
      ctx.spans->add(SpanKind::kOracle, t0, t1, ep.request, ep.span);
      ctx.spans->close(ep.span, t1, ep.request);
    }
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.episode_ms.push_back(static_cast<double>(t1 - ep.start_ns) * 1e-6);
    ctx.generate_s += static_cast<double>(ep.generate_ns) * 1e-9;
    ctx.oracle_s += seconds_between(t0, t1);
    ctx.episode_s += seconds_between(ep.start_ns, t1);
    return verdict;
  };
  prop.shrink = false;  // a failure is reported, not minimized
  return prop;
}

struct PhaseTotals {
  std::size_t calls = 0;
  std::size_t episodes = 0;
  double wall_s = 0.0;  // summed wall time of the check_property calls
  std::vector<double> call_rates;    // episodes/s of each call
  std::vector<double> call_mean_ms;  // mean episode span of each call
};

/// Runs check_property calls of `episodes` each until the deadline (at
/// least one call). When `first` is given, it receives registry snapshots
/// taken around the first call. With `probe`, a CPU speed probe runs after
/// each call, outside its timing, into rep.probes.
PhaseTotals run_phase(bool linf, const Options& opt, std::uint64_t seed,
                      Stream stream, std::size_t episodes,
                      std::int64_t deadline_ns,
                      CallContext& ctx, Report& rep, bool probe = false,
                      std::pair<Snapshot, Snapshot>* first = nullptr) {
  PhaseTotals tot;
  do {
    AsyncProperty prop = make_property(linf, ctx);
    prop.episodes = episodes;
    prop.base_seed = call_seed(seed, stream, tot.calls);
    prop.repro_dir = opt.out_dir;
    ctx.episode_of.clear();
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      rbvc::Rng r(rbvc::seed_sequence(prop.base_seed, ep));
      ctx.episode_of[r.next_u64()] = static_cast<std::int64_t>(ep);
    }
    if (first != nullptr && tot.calls == 0) first->first = Snapshot::take();
    const double episode_s0 = ctx.episode_s;
    const std::int64_t t0 = now_ns();
    ctx.call_span =
        ctx.spans ? ctx.spans->open(SpanKind::kCheckProperty, t0, -1, -1) : -1;
    const rbvc::harness::PropertyResult r =
        rbvc::harness::check_property<rbvc::harness::AsyncRunner>(prop);
    const std::int64_t t1 = now_ns();
    if (ctx.spans) ctx.spans->close(ctx.call_span, t1, -1);
    if (first != nullptr && tot.calls == 0) first->second = Snapshot::take();

    rep.attempted += r.episodes;
    if (!r.passed) {
      rep.fail(fmt("episode %zu of call %zu: %s", r.failing_episode, tot.calls,
                   r.failure.c_str()));
    } else if (r.episodes != episodes) {
      rep.fail(fmt("call %zu ran %zu of %zu episodes", tot.calls, r.episodes,
                   episodes));
    }
    ++tot.calls;
    tot.episodes += r.episodes;
    tot.wall_s += seconds_between(t0, t1);
    tot.call_rates.push_back(
        ratio(static_cast<double>(r.episodes), seconds_between(t0, t1)));
    tot.call_mean_ms.push_back(ratio((ctx.episode_s - episode_s0) * 1e3,
                                     static_cast<double>(r.episodes)));
    if (probe) {
      const std::vector<double> t = probe_seconds(opt.width);
      rep.probes.insert(rep.probes.end(), t.begin(), t.end());
    }
  } while (now_ns() < deadline_ns);
  return tot;
}

}  // namespace

Report run_sweep(const Options& opt, bool linf) {
  Report rep;
  const std::size_t episodes = episodes_per_call(linf);
  const double width = static_cast<double>(opt.width);

  // Set-up: one warm-up call on the set-up stream, repeated kSetups times.
  std::vector<double> setup_s;
  {
    CallContext warm;
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t t0 = now_ns();
      run_phase(linf, opt, kSetupSeed, Stream::kSetup, kWarmupEpisodes, 0,
                warm, rep);
      setup_s.push_back(seconds_between(t0, now_ns()));
    }
  }

  const auto window_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  if (!opt.trace) {
    CallContext ctx;
    const PhaseTotals w = run_phase(linf, opt, opt.seed, Stream::kWindow, episodes,
                                    now_ns() + window_ns, ctx, rep, true);
    const std::size_t n = ctx.episode_ms.size();
    rep.set("ops_per_s", median(w.call_rates));
    // The median over calls of each call's mean episode span, not the p50
    // of the pooled spans. The host slows single vCPUs for fractions of a
    // second (see main.cpp), so the ~25 ms episodes of sweep-linf-f2 form a
    // fast and a slow mode, and the pooled p50 falls between them: over ten
    // runs it jumped between 24.7 and 29.1 ms (IQR/median 0.145). A call's
    // mean moves smoothly with the share of time the vCPUs ran slow.
    rep.set("op_p50_ms", median(w.call_mean_ms));
    rep.set("op_tail_ms", percentile(ctx.episode_ms, kTailQ));
    rep.set("setup_s", median(setup_s));
    rep.note(fmt("episodes_per_s = %.2f 1/s  (median over %zu check_property "
                 "calls of %zu episodes, pool width %zu:%s; all calls: %zu "
                 "episodes in %.2f s)",
                 rep.values["ops_per_s"], w.calls, episodes, opt.width,
                 join(w.call_rates, "%.1f").c_str(), w.episodes, w.wall_s));
    rep.note(fmt("episode_ms = %.2f ms  (median over the calls of their mean "
                 "episode span:%s; pooled p50 of the %zu spans %.2f ms)",
                 rep.values["op_p50_ms"], join(w.call_mean_ms, "%.2f").c_str(),
                 n, percentile(ctx.episode_ms, 0.50)));
    rep.note(fmt("episode_p90_ms = %.2f ms  (n=%zu, %zu beyond p90)",
                 rep.values["op_tail_ms"], n, n - (n * 90 + 99) / 100));
    rep.note(fmt("setup_s = %.4f s  (median of %d set-ups of %zu warm-up "
                 "episodes:%s)",
                 rep.values["setup_s"], kSetups, kWarmupEpisodes,
                 join(setup_s, "%.4f").c_str()));
    return rep;
  }

  // Traced run: an untraced half window, then a traced half window whose
  // first call is the exact-count pass.
  CallContext plain;
  const PhaseTotals w0 = run_phase(linf, opt, opt.seed, Stream::kWindow, episodes,
                                   now_ns() + window_ns / 2, plain, rep);
  SpanLog spans(kSpanCapacity);
  CallContext ctx;
  ctx.spans = &spans;
  std::pair<Snapshot, Snapshot> first;
  const Snapshot s0 = Snapshot::take();
  const PhaseTotals w1 = run_phase(linf, opt, opt.seed, Stream::kTraced, episodes,
                                   now_ns() + window_ns / 2, ctx, rep, false,
                                   &first);
  const Snapshot s1 = Snapshot::take();

  const Delta d{s0, s1};             // whole traced half: timers
  const Delta x{first.first, first.second};  // first call: exact counts
  const double ops = static_cast<double>(episodes);
  const double ep_s = ctx.episode_s;
  const double ds_calls = x.counter("geom.delta_star.calls");
  const double thread_wall_s = width * w1.wall_s;
  const double rate0 = ratio(static_cast<double>(w0.episodes), w0.wall_s);
  const double rate1 = ratio(static_cast<double>(w1.episodes), w1.wall_s);

  rep.set("protocols.rbc_emits_per_op", ratio(x.counter("protocols.rbc.emits"), ops));
  rep.set("consensus.delta_star_calls_per_op", ratio(ds_calls, ops));
  rep.set("hull.delta_star_share", ratio(d.sum("geom.delta_star.seconds"), ep_s));
  rep.set("hull.delta_star_us", ratio(d.sum("geom.delta_star.seconds") * 1e6,
                                      d.counter("geom.delta_star.calls")));
  for (const char* m : {"gamma_nonempty", "simplex_inradius", "numerical"}) {
    rep.set(fmt("hull.method.%s_per_op", m),
            ratio(x.counter(fmt("geom.delta_star.method.%s", m)), ops));
  }
  rep.set("hull.bisect_iters_per_call",
          ratio(x.counter("geom.delta_star.bisect_iters"), ds_calls));
  rep.set("opt.minimax_share", ratio(d.sum("opt.minimax.seconds"), ep_s));
  rep.set("opt.minimax_evals_per_call",
          ratio(x.counter("opt.minimax.evals"), x.counter("opt.minimax.calls")));
  rep.set("lp.share", ratio(d.sum("lp.seconds"), ep_s));
  rep.set("lp.pivots_per_op", ratio(x.counter("lp.pivots"), ops));
  rep.set("lp.warm_dual_pivots_per_op", ratio(x.counter("lp.warm.dual_pivots"), ops));
  rep.set("lp.warm_hit_rate",
          ratio(x.counter("lp.warm.hits"), x.counter("lp.warm.attempts")));
  rep.set("sim.messages_per_episode",
          ratio(x.counter("sim.async.messages_delivered"), ops));
  rep.set("harness.episode_ms_p50", percentile(ctx.episode_ms, 0.5));
  rep.set("harness.oracle_share", ratio(ctx.oracle_s, ep_s));
  rep.set("exec.busy_frac", ratio(d.sum("exec.worker_busy_seconds"), thread_wall_s));
  rep.set("exec.steals_per_episode",
          ratio(d.counter("exec.steals"), static_cast<double>(w1.episodes)));
  rep.set("bench.trace_overhead_pct", ratio(100.0 * (rate0 - rate1), rate0));
  rep.set("bench.uncovered_frac", 1.0 - ratio(ep_s, thread_wall_s));

  rep.note(fmt("traced window: %zu episodes in %zu calls, %.2f s; untraced "
               "half %.2f ep/s, traced half %.2f ep/s",
               w1.episodes, w1.calls, w1.wall_s, rate0, rate1));
  rep.note(fmt("exact counts, first traced call (%zu episodes): "
               "delta*.calls=%.0f rbc.emits=%.0f minimax.evals=%.0f "
               "bisect_iters=%.0f lp.pivots=%.0f lp.warm.dual_pivots=%.0f "
               "lp.warm.hits=%.0f/%.0f sim.messages_delivered=%.0f",
               episodes, ds_calls, x.counter("protocols.rbc.emits"),
               x.counter("opt.minimax.evals"),
               x.counter("geom.delta_star.bisect_iters"), x.counter("lp.pivots"),
               x.counter("lp.warm.dual_pivots"), x.counter("lp.warm.hits"),
               x.counter("lp.warm.attempts"),
               x.counter("sim.async.messages_delivered")));
  // Self-time split of episode time. LP is attributed to delta* (the LP
  // calls inside the run are all delta*'s); the oracle's own distance LPs
  // on sweep-linf-f2 (a few per episode against ~30 per delta* call) are
  // counted in both the lp and the harness.oracle rows.
  const double ds = d.sum("geom.delta_star.seconds");
  const double mm = d.sum("opt.minimax.seconds");
  const double lp = d.sum("lp.seconds");
  const std::map<std::string, double> self = {
      {"harness.generate", ctx.generate_s},
      {"harness.oracle", ctx.oracle_s},
      {"sim+protocols+consensus", ep_s - ctx.generate_s - ctx.oracle_s - ds},
      {"hull.delta_star", std::max(0.0, ds - mm - lp)},
      {"opt.minimax", mm},
      {"lp", lp},
  };
  std::string split;
  std::string largest;
  for (const auto& [name, s] : self) {
    split += fmt(" %s %.1f%%", name.c_str(), 100 * ratio(s, ep_s));
    if (largest.empty() || s > self.at(largest)) largest = name;
  }
  rep.note("self-time split of episode time:" + split);
  rep.note("largest self time: " + largest);
  rep.note(fmt("pool threads: %.1f%% of %zu x %.2f s outside any episode span",
               100 * rep.values["bench.uncovered_frac"], opt.width, w1.wall_s));
  const std::string path = opt.out_dir + "/" +
                           (linf ? "sweep-linf-f2" : "sweep-l2-f2") +
                           ".spans.jsonl";
  if (spans.write_jsonl(path)) {
    rep.note(fmt("spans: %zu written to %s (%zu over capacity, counted only)",
                 spans.recorded(), path.c_str(), spans.dropped()));
  }
  return rep;
}

}  // namespace perfbench
