#include "mc/explorer.h"

#include <algorithm>
#include <utility>

#include "exec/parallel_executor.h"
#include "obs/metrics.h"

namespace rbvc::mc {
namespace {

// One decision point on the current DFS path. The vector of frames IS the
// explorer state: a run replays the prefix frames_[0..cursor) and extends
// the path with fresh frames past it, so no engine state ever needs to be
// snapshotted.
struct Frame {
  bool is_pick = false;
  std::size_t arity = 0;
  std::size_t taken = 0;            // option the current path takes here
  std::vector<char> explored;       // subtree under option j fully done
  std::vector<char> sleep;          // picks only: option j pruned by POR
  std::vector<sim::ProcessId> recipients;  // picks only: pending[j].to
};

// Thrown through the run function to abort a redundant execution (every
// fresh option at a new decision point is asleep). The engines are
// exception-clean, so unwinding mid-run is safe.
struct PruneSignal {};

// Mints every mc.* metric at the first exploration, so the registry key
// set does not depend on which paths an exploration happens to take; the
// byte-identical repro-snapshot contract relies on that.
void mint_metrics() {
  obs::counter(obs::m::mc_runs);
  obs::counter(obs::m::mc_states_explored);
  obs::counter(obs::m::mc_sleep_skips);
  obs::counter(obs::m::mc_sleep_blocked);
  obs::counter(obs::m::mc_truncated_runs);
  obs::counter(obs::m::mc_violations);
  obs::gauge(obs::m::mc_max_depth);
}

bool is_asleep(const Frame& f, std::size_t t) {
  return f.is_pick && f.sleep[t] != 0;
}

// Drives one run along the path encoded in `frames`: decisions with an
// existing frame replay that frame's taken option; the first decision past
// the end opens a new frame (computing its sleep set from the nearest pick
// frame below) and takes its first awake option, as do all deeper ones.
class PathSource final : public ChoiceSource {
 public:
  PathSource(std::vector<Frame>& frames, ExploreStats& st, bool por,
             bool meter)
      : frames_(frames), st_(st), por_(por), meter_(meter) {}

  std::size_t choose(std::size_t arity) override {
    RBVC_REQUIRE(arity >= 1, "mc::explore: choose arity must be >= 1");
    return step(false, arity, nullptr);
  }

  std::size_t pick(const sim::PendingPool& pending) override {
    RBVC_REQUIRE(!pending.empty(), "mc::explore: nothing pending");
    return step(true, pending.size(), &pending);
  }

 private:
  std::size_t step(bool is_pick, std::size_t arity,
                   const sim::PendingPool* pending) {
    if (cursor_ < frames_.size()) {
      const Frame& f = frames_[cursor_];
      RBVC_REQUIRE(f.is_pick == is_pick && f.arity == arity,
                   "mc::explore: replay diverged at decision " +
                       std::to_string(cursor_) +
                       " -- the run function must be a deterministic "
                       "function of the decisions taken");
      ++cursor_;
      return f.taken;
    }
    Frame f;
    f.is_pick = is_pick;
    f.arity = arity;
    f.explored.assign(arity, 0);
    if (is_pick) {
      f.recipients.resize(arity);
      for (std::size_t i = 0; i < arity; ++i) {
        f.recipients[i] = (*pending)[i].to;
      }
      f.sleep.assign(arity, 0);
      if (por_) inherit_sleep(f);
    }
    std::size_t t = 0;
    while (t < arity && is_asleep(f, t)) ++t;
    if (t == arity) throw PruneSignal{};  // whole path is a transposition
    f.taken = t;
    frames_.push_back(std::move(f));
    ++cursor_;
    ++st_.states;
    if (meter_) obs::counter(obs::m::mc_states_explored).inc();
    return t;
  }

  // Sleep-set inheritance (Godefroid): option j sleeps in the child reached
  // via option i when j was asleep-or-explored at the parent and j's
  // delivery commutes with i's (distinct recipients: a delivery mutates
  // only the recipient's state and appends only the recipient's sends).
  // The parent is the nearest *pick* frame below: choice frames never touch
  // the pending pool, so the pool seen here is the parent's pool minus its
  // delivered message plus appended sends.
  void inherit_sleep(Frame& f) {
    const Frame* par = nullptr;
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (it->is_pick) {
        par = &*it;
        break;
      }
    }
    if (!par) return;
    const std::size_t i = par->taken;
    for (std::size_t j = 0; j < par->arity; ++j) {
      if (j == i) continue;
      if (!par->sleep[j] && !par->explored[j]) continue;
      if (par->recipients[j] == par->recipients[i]) continue;  // dependent
      // Between picks the pool only loses the delivered message and gains
      // appended sends (the index rule in sim/async_engine.h), so surviving
      // messages keep their index order shifted down by one past the
      // delivered index. The recipient check guards the map in case a
      // future engine reorders the pool.
      const std::size_t cj = j < i ? j : j - 1;
      if (cj < f.arity && f.recipients[cj] == par->recipients[j] &&
          !f.sleep[cj]) {
        f.sleep[cj] = 1;
        ++st_.sleep_skips;
        if (meter_) obs::counter(obs::m::mc_sleep_skips).inc();
      }
    }
  }

  std::vector<Frame>& frames_;
  std::size_t cursor_ = 0;
  ExploreStats& st_;
  bool por_;
  bool meter_;
};

// Serial DFS over the subtree rooted at the given path prefix. The first
// `pinned` frames are never advanced or popped: the parallel frontier pins
// the root frame at one option per worker, and each worker's sweep is then
// bit-identical to the slice of the serial DFS that has that option taken
// at the root.
ExploreResult explore_subtree(const RunFn& run, const ExploreOptions& opts,
                              std::vector<Frame> frames, std::size_t pinned,
                              bool meter, const ExploreStats& seed) {
  ExploreResult res;
  ExploreStats& st = res.stats;
  st = seed;
  for (;;) {
    if ((opts.max_runs != 0 && st.runs >= opts.max_runs) ||
        (opts.max_states != 0 && st.states >= opts.max_states)) {
      st.complete = false;
      break;
    }
    PathSource src(frames, st, opts.por, meter);
    RunVerdict v;
    bool pruned = false;
    try {
      v = run(src);
    } catch (const PruneSignal&) {
      pruned = true;
      ++st.sleep_blocked;
      if (meter) obs::counter(obs::m::mc_sleep_blocked).inc();
    }
    st.max_depth = std::max(st.max_depth, frames.size());
    if (!pruned) {
      ++st.runs;
      if (meter) obs::counter(obs::m::mc_runs).inc();
      if (v.truncated) {
        ++st.truncated_runs;
        if (meter) obs::counter(obs::m::mc_truncated_runs).inc();
      }
      if (!v.failure.empty()) {
        res.found = true;
        res.failure = std::move(v.failure);
        for (const Frame& f : frames) {
          if (f.is_pick) {
            res.witness.add_pick(f.taken);
          } else {
            res.witness.add_choice(f.taken);
          }
        }
        if (meter) obs::counter(obs::m::mc_violations).inc();
        st.complete = false;  // stopped at the first violation in DFS order
        break;
      }
    }
    // Backtrack: advance the deepest frame with an untried awake option,
    // popping exhausted frames on the way down.
    bool advanced = false;
    while (frames.size() > pinned) {
      Frame& f = frames.back();
      f.explored[f.taken] = 1;
      std::size_t t = f.taken + 1;
      while (t < f.arity && (f.explored[t] != 0 || is_asleep(f, t))) ++t;
      if (t < f.arity) {
        f.taken = t;
        ++st.states;
        if (meter) obs::counter(obs::m::mc_states_explored).inc();
        advanced = true;
        break;
      }
      frames.pop_back();
    }
    if (!advanced) break;  // subtree exhausted
  }
  return res;
}

}  // namespace

ExploreResult explore(const RunFn& run, const ExploreOptions& opts) {
  mint_metrics();
  const std::size_t jobs = opts.jobs != 0 ? opts.jobs : exec::default_jobs();

  // Bootstrap run along the all-first-options path to discover the root
  // decision point. Uncounted (throwaway stats, no metrics): subtree 0
  // re-executes the same path as its first run, so counting both would
  // double-book it. The first path cannot prune -- sleep sets only ever
  // contain options that were explored or asleep at a parent, and nothing
  // has been explored yet.
  std::vector<Frame> boot;
  ExploreStats boot_st;
  RunVerdict boot_v;
  {
    PathSource src(boot, boot_st, opts.por, /*meter=*/false);
    boot_v = run(src);
  }

  // The pool is constructed at every job count (width 1 runs inline on the
  // caller) so the exec.* registry entries exist regardless of RBVC_JOBS --
  // same key-set-stability contract as the mc.* handles above.
  const std::size_t arity = boot.empty() ? 0 : boot.front().arity;
  exec::ParallelExecutor pool(
      std::min(jobs, std::max<std::size_t>(arity, 1)));

  if (boot.empty()) {
    // No decision points at all: the run is deterministic; its one
    // execution is the whole tree.
    ExploreResult res;
    res.stats.runs = 1;
    obs::counter(obs::m::mc_runs).inc();
    if (boot_v.truncated) {
      res.stats.truncated_runs = 1;
      obs::counter(obs::m::mc_truncated_runs).inc();
    }
    if (!boot_v.failure.empty()) {
      res.found = true;
      res.failure = std::move(boot_v.failure);
      res.stats.complete = false;
      obs::counter(obs::m::mc_violations).inc();
    }
    return res;
  }

  // Fan the root's options across the pool: subtree k pins root.taken = k
  // with options below k marked explored -- exactly the root state the
  // serial DFS carries into option k -- and find_first returns the lowest
  // violating subtree, so the witness is byte-identical at any width.
  const Frame& root = boot.front();
  std::vector<ExploreResult> slots(arity);
  std::vector<char> ran(arity, 0);
  const std::size_t hit = pool.find_first(arity, [&](std::size_t k) {
    Frame pin;
    pin.is_pick = root.is_pick;
    pin.arity = arity;
    pin.taken = k;
    pin.explored.assign(arity, 0);
    for (std::size_t j = 0; j < k; ++j) pin.explored[j] = 1;
    pin.sleep = root.sleep;  // empty at the root (nothing explored before)
    pin.recipients = root.recipients;
    ExploreStats seed;
    seed.states = 1;  // the pinned root edge
    obs::counter(obs::m::mc_states_explored).inc();
    std::vector<Frame> frames;
    frames.push_back(std::move(pin));
    slots[k] =
        explore_subtree(run, opts, std::move(frames), /*pinned=*/1,
                        /*meter=*/true, seed);
    ran[k] = 1;
    return slots[k].found;
  });

  ExploreResult res;
  if (hit != exec::kNoIndex) {
    res.found = true;
    res.failure = slots[hit].failure;
    res.witness = slots[hit].witness;
  }
  // Merged stats: exact and job-count-independent when the sweep ran to
  // exhaustion (every subtree executed, each bit-identical to its serial
  // slice); advisory when a violation short-circuited it (subtrees above
  // the hit may have been skipped or cut short at any point).
  for (std::size_t k = 0; k < arity; ++k) {
    if (ran[k] == 0) continue;
    const ExploreStats& s = slots[k].stats;
    res.stats.runs += s.runs;
    res.stats.states += s.states;
    res.stats.sleep_skips += s.sleep_skips;
    res.stats.sleep_blocked += s.sleep_blocked;
    res.stats.truncated_runs += s.truncated_runs;
    res.stats.max_depth = std::max(res.stats.max_depth, s.max_depth);
    res.stats.complete = res.stats.complete && s.complete;
  }
  if (res.found) res.stats.complete = false;
  obs::gauge(obs::m::mc_max_depth)
      .set(static_cast<double>(res.stats.max_depth));
  return res;
}

}  // namespace rbvc::mc
