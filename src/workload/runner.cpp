#include "workload/runner.h"

#include <algorithm>

#include "consensus/algo_relaxed.h"
#include "consensus/exact_bvc.h"
#include "consensus/k_relaxed.h"
#include "hull/delta_star.h"
#include "hull/gamma.h"
#include "obs/metrics.h"
#include "sim/sync_engine.h"

namespace rbvc::workload {

namespace {
bool is_byzantine(const std::vector<std::size_t>& ids, std::size_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// The effective adversary-decision source of a run: a live source wins,
// else a recorded log's kChoice subsequence replays, else every branch
// takes its first option. Holds the fallback objects so callers get one
// reference with the right lifetime (the run's scope).
struct ChoiceStack {
  ChoiceStack(mc::ChoiceSource* live, const sim::ScheduleLog* replay,
              sim::ScheduleLog* record)
      : replayer(replay),
        base(live != nullptr
                 ? *live
                 : (replay != nullptr ? static_cast<mc::ChoiceSource&>(replayer)
                                      : static_cast<mc::ChoiceSource&>(first))),
        recorder(base, record) {}

  mc::FirstChoice first;
  mc::ChoiceReplayer replayer;
  mc::ChoiceSource& base;
  mc::RecordingChoices recorder;  // the source handed to strategies
};

// Expensive derived metrics, gated on Registry::enabled(): how far the
// correct decisions actually sit outside the drop-f hulls of the honest
// inputs (the achieved delta), against delta*(honest inputs) -- the paper's
// Thm 9/12 yardstick. Both need LP solves, so never on the default path;
// a degenerate episode (f = 0, too few inputs, solver failure) just skips
// the gauges rather than failing the run.
void record_delta_gauges(obs::Handle<obs::Gauge> achieved_gauge,
                         obs::Handle<obs::Gauge> bound_gauge,
                         const std::vector<Vec>& decisions,
                         const std::vector<Vec>& honest_inputs,
                         std::size_t f) {
  if (!obs::global().enabled() || decisions.empty()) return;
  if (f < 1 || honest_inputs.size() <= f) return;
  try {
    double achieved = 0.0;
    for (const Vec& dec : decisions) {
      achieved = std::max(achieved,
                          gamma_excess(dec, honest_inputs, f, /*p=*/2.0));
    }
    const double bound = delta_star_2(honest_inputs, f).value;
    obs::gauge(achieved_gauge).set(achieved);
    obs::gauge(bound_gauge).set(bound);
  } catch (const std::exception&) {
    // Diagnostics only: a solver failure here must not fail the episode.
  }
}
}  // namespace

protocols::DecisionFn make_decision(SyncRule rule, std::size_t f,
                                    std::size_t k) {
  switch (rule) {
    case SyncRule::kAlgoRelaxed:
      return consensus::algo_decision(f);
    case SyncRule::kExactBvc:
      return consensus::exact_bvc_decision(f);
    case SyncRule::kKRelaxed:
      return consensus::k_relaxed_decision(f, k);
    case SyncRule::kFirstResolved:
      return [](const std::vector<Vec>& s) { return s.front(); };
    case SyncRule::kCustom:
      break;
  }
  throw invalid_argument(
      "make_decision: SyncRule::kCustom has no factory; set "
      "SyncExperiment::decision instead");
}

SyncOutcome run_sync_experiment(const SyncExperiment& e) {
  obs::counter(obs::m::workload_sync_episodes).inc();
  obs::ScopedTimer timer(obs::histogram(obs::m::workload_sync_episode_seconds));
  const protocols::DecisionFn decision =
      e.decision ? e.decision : make_decision(e.rule, e.f, e.k);
  RBVC_REQUIRE(e.byzantine_ids.size() <= e.f,
               "run_sync_experiment: more faulty ids than the fault budget");
  RBVC_REQUIRE(e.honest_inputs.size() + e.byzantine_ids.size() == e.n,
               "run_sync_experiment: inputs + faulty ids must cover n");
  const std::size_t d = e.honest_inputs.front().size();

  sim::SyncEngine engine;
  engine.trace().set_enabled(e.capture_trace);
  if (e.record) {
    e.record->clear();
    engine.set_schedule_log(e.record);
  }
  Rng seeds(e.seed);
  ChoiceStack choices(e.choices, e.replay, e.record);
  // The authority outlives the engine run; only used for kDolevStrong.
  sim::SignatureAuthority authority(seeds.next_u64());
  std::vector<std::size_t> correct_ids;
  std::size_t next_input = 0;
  for (std::size_t id = 0; id < e.n; ++id) {
    if (is_byzantine(e.byzantine_ids, id)) {
      if (e.backend == SyncBackend::kEig) {
        engine.add(make_sync_byzantine(e.strategy, e.n, e.f, id, d,
                                       seeds.next_u64(), &choices.recorder));
      } else {
        engine.add(make_ds_byzantine(e.strategy, e.n, e.f, id, d,
                                     seeds.next_u64(),
                                     authority.signer_for(id), &authority,
                                     &choices.recorder));
      }
    } else {
      if (e.backend == SyncBackend::kEig) {
        engine.add(std::make_unique<protocols::EigConsensusProcess>(
            e.n, e.f, id, e.honest_inputs.at(next_input++), zeros(d),
            decision));
      } else {
        auto p = std::make_unique<protocols::DolevStrongProcess>(
            e.n, e.f, id, e.honest_inputs.at(next_input++), zeros(d),
            decision, authority.signer_for(id), &authority);
        p->set_validate_chains(e.validate_chains);
        engine.add(std::move(p));
      }
      correct_ids.push_back(id);
    }
  }

  SyncOutcome out;
  out.honest_inputs = e.honest_inputs;
  const std::size_t rounds =
      protocols::EigConsensusProcess::rounds_needed(e.f);  // f+2 for both
  try {
    out.stats = engine.run(rounds);
  } catch (const consensus::infeasible_instance& ex) {
    out.decision_failed = true;
    out.failure = ex.what();
    out.trace = engine.trace();
    return out;
  }
  out.trace = engine.trace();
  for (std::size_t id : correct_ids) {
    if (e.backend == SyncBackend::kEig) {
      out.decisions.push_back(
          dynamic_cast<protocols::EigConsensusProcess&>(engine.process(id))
              .decision());
    } else {
      out.decisions.push_back(
          dynamic_cast<protocols::DolevStrongProcess&>(engine.process(id))
              .decision());
    }
  }
  obs::histogram(obs::m::workload_sync_decide_rounds)
      .observe(static_cast<double>(out.stats.rounds));
  record_delta_gauges(obs::m::workload_sync_achieved_delta,
                      obs::m::workload_sync_delta_star_bound, out.decisions,
                      out.honest_inputs, e.f);
  return out;
}

AsyncOutcome run_async_experiment(const AsyncExperiment& e) {
  obs::counter(obs::m::workload_async_episodes).inc();
  obs::ScopedTimer timer(
      obs::histogram(obs::m::workload_async_episode_seconds));
  RBVC_REQUIRE(e.honest_inputs.size() + e.byzantine_ids.size() == e.prm.n,
               "run_async_experiment: inputs + faulty ids must cover n");
  RBVC_REQUIRE(e.byzantine_ids.size() <= e.prm.f,
               "run_async_experiment: more faulty ids than the fault budget");

  Rng seeds(e.seed);
  ChoiceStack choices(e.choices, e.replay, e.record);
  // Always burn one seed draw for the scheduler so process seeds line up
  // between recorded runs and replays (which ignore the scheduler seed).
  const std::uint64_t sched_seed = seeds.next_u64();
  std::unique_ptr<sim::Scheduler> sched;
  if (e.choices != nullptr) {
    // A live source owns the scheduler decisions too (model checking);
    // picks route through the recorder, which forwards them unrecorded
    // because the engine logs its own picks.
    sched = std::make_unique<mc::SourceScheduler>(choices.recorder);
  } else if (e.replay) {
    sched = std::make_unique<sim::ReplayScheduler>(*e.replay);
  } else if (e.scheduler == SchedulerKind::kRandom) {
    sched = std::make_unique<sim::RandomScheduler>(sched_seed);
  } else {
    // Lag the Byzantine processes plus (arbitrarily) the highest correct id,
    // modelling "f slow correct processes" when there are no faults.
    std::vector<sim::ProcessId> laggards(e.byzantine_ids.begin(),
                                         e.byzantine_ids.end());
    if (laggards.empty() && e.prm.n > 0) laggards.push_back(e.prm.n - 1);
    sched = std::make_unique<sim::LaggardScheduler>(sched_seed,
                                                    std::move(laggards));
  }
  sim::AsyncEngine engine(std::move(sched));
  engine.trace().set_enabled(e.capture_trace);
  if (e.record) {
    e.record->clear();
    engine.set_schedule_log(e.record);
  }

  std::vector<sim::ProcessId> correct_ids;
  std::size_t next_input = 0;
  for (std::size_t id = 0; id < e.prm.n; ++id) {
    if (is_byzantine(e.byzantine_ids, id)) {
      engine.add(make_async_byzantine(e.strategy, e.prm, id, e.d,
                                      seeds.next_u64(), &choices.recorder));
    } else {
      engine.add(std::make_unique<consensus::AsyncAveragingProcess>(
          e.prm, id, e.honest_inputs.at(next_input++)));
      correct_ids.push_back(id);
    }
  }

  AsyncOutcome out;
  out.honest_inputs = e.honest_inputs;
  out.stats = engine.run(correct_ids, e.max_events);
  out.trace = engine.trace();
  for (sim::ProcessId id : correct_ids) {
    auto& p = dynamic_cast<consensus::AsyncAveragingProcess&>(
        engine.process(id));
    if (!p.decided() || p.failed()) {
      out.failed = true;
      continue;
    }
    out.decisions.push_back(p.decision());
    out.round0_deltas.push_back(p.round0_delta());
  }
  obs::histogram(obs::m::workload_async_decide_deliveries)
      .observe(static_cast<double>(out.stats.deliveries));
  if (!out.failed) {
    record_delta_gauges(obs::m::workload_async_achieved_delta,
                        obs::m::workload_async_delta_star_bound,
                        out.decisions, out.honest_inputs, e.prm.f);
  }
  return out;
}

namespace {

/// A correct participant of a standalone RBC experiment: broadcasts its
/// input as instance 0 and records everything it delivers. Never reports
/// decided -- the experiment runs to network quiescence, which is the only
/// point where the RBC totality clause is checkable.
class RbcPeerProcess final : public sim::AsyncProcess {
 public:
  RbcPeerProcess(std::size_t n, std::size_t f, sim::ProcessId self, Vec input,
                 const protocols::BrachaRbc::Quorums& quorums,
                 bool broadcast = true)
      : rbc_(n, f, self), input_(std::move(input)), broadcast_(broadcast) {
    rbc_.override_quorums(quorums);
  }

  void init(sim::Outbox& out) override {
    if (broadcast_) rbc_.broadcast(0, input_, out);
  }
  void on_message(const sim::Message& m, sim::Outbox& out) override {
    for (auto& d : rbc_.on_message(m, out)) {
      deliveries_.push_back(std::move(d));
    }
  }
  bool decided() const override { return false; }

  const std::vector<protocols::BrachaRbc::Delivery>& deliveries() const {
    return deliveries_;
  }

 private:
  protocols::BrachaRbc rbc_;
  Vec input_;
  bool broadcast_;
  std::vector<protocols::BrachaRbc::Delivery> deliveries_;
};

}  // namespace

RbcOutcome run_rbc_experiment(const RbcExperiment& e) {
  obs::counter(obs::m::workload_rbc_episodes).inc();
  obs::ScopedTimer timer(obs::histogram(obs::m::workload_rbc_episode_seconds));
  RBVC_REQUIRE(e.honest_inputs.size() + e.byzantine_ids.size() == e.n,
               "run_rbc_experiment: inputs + faulty ids must cover n");
  RBVC_REQUIRE(e.byzantine_ids.size() <= e.f,
               "run_rbc_experiment: more faulty ids than the fault budget");
  RBVC_REQUIRE(!e.honest_inputs.empty(),
               "run_rbc_experiment: need at least one correct process");
  const std::size_t d = e.honest_inputs.front().size();

  Rng seeds(e.seed);
  ChoiceStack choices(e.choices, e.replay, e.record);
  // Same seed-derivation order as run_async_experiment, so schedules and
  // Byzantine randomness replay identically.
  const std::uint64_t sched_seed = seeds.next_u64();
  std::unique_ptr<sim::Scheduler> sched;
  if (e.choices != nullptr) {
    sched = std::make_unique<mc::SourceScheduler>(choices.recorder);
  } else if (e.replay) {
    sched = std::make_unique<sim::ReplayScheduler>(*e.replay);
  } else if (e.scheduler == SchedulerKind::kRandom) {
    sched = std::make_unique<sim::RandomScheduler>(sched_seed);
  } else {
    std::vector<sim::ProcessId> laggards(e.byzantine_ids.begin(),
                                         e.byzantine_ids.end());
    if (laggards.empty() && e.n > 0) laggards.push_back(e.n - 1);
    sched = std::make_unique<sim::LaggardScheduler>(sched_seed,
                                                    std::move(laggards));
  }
  sim::AsyncEngine engine(std::move(sched));
  engine.trace().set_enabled(e.capture_trace);
  if (e.record) {
    e.record->clear();
    engine.set_schedule_log(e.record);
  }

  std::vector<sim::ProcessId> correct_ids;
  std::size_t next_input = 0;
  for (std::size_t id = 0; id < e.n; ++id) {
    if (is_byzantine(e.byzantine_ids, id)) {
      Rng rng(seeds.next_u64());
      switch (e.strategy) {
        case AsyncStrategy::kSilent:
          engine.add(std::make_unique<SilentAsyncProcess>());
          break;
        case AsyncStrategy::kEquivocate:
          engine.add(std::make_unique<EquivocatingAsyncProcess>(
              e.n, id, scale(10.0, rng.normal_vec(d)),
              scale(-10.0, rng.normal_vec(d))));
          break;
        case AsyncStrategy::kOutlierInput:
          engine.add(std::make_unique<RbcPeerProcess>(
              e.n, e.f, id, scale(25.0, rng.normal_vec(d)),
              protocols::BrachaRbc::Quorums{}));
          break;
        case AsyncStrategy::kCrashMidway:
          engine.add(std::make_unique<CrashingAsyncProcess>(
              std::make_unique<RbcPeerProcess>(
                  e.n, e.f, id, rng.normal_vec(d),
                  protocols::BrachaRbc::Quorums{}),
              /*max_deliveries=*/10));
          break;
        case AsyncStrategy::kChoiceEquivocate:
          engine.add(std::make_unique<ChoiceEquivocatingAsyncProcess>(
              e.n, id, scale(10.0, rng.normal_vec(d)),
              scale(-10.0, rng.normal_vec(d)), &choices.recorder));
          break;
      }
    } else {
      const bool broadcast_all =
          e.broadcasters.size() == 1 &&
          e.broadcasters.front() == RbcExperiment::kBroadcastAll;
      const bool broadcasts =
          broadcast_all || std::find(e.broadcasters.begin(),
                                     e.broadcasters.end(),
                                     id) != e.broadcasters.end();
      engine.add(std::make_unique<RbcPeerProcess>(
          e.n, e.f, id, e.honest_inputs.at(next_input++), e.quorums,
          broadcasts));
      correct_ids.push_back(id);
    }
  }

  RbcOutcome out;
  out.honest_inputs = e.honest_inputs;
  out.correct_ids = correct_ids;
  // RbcPeerProcess::decided() is always false, so the run ends only at
  // quiescence (empty pool) or the event cap -- totality needs the former.
  out.stats = engine.run(correct_ids, e.max_events);
  out.trace = engine.trace();
  for (sim::ProcessId id : correct_ids) {
    out.deliveries.push_back(
        dynamic_cast<RbcPeerProcess&>(engine.process(id)).deliveries());
  }
  return out;
}

BroadcastOutcome run_broadcast_experiment(const BroadcastExperiment& e) {
  obs::counter(obs::m::workload_ds_episodes).inc();
  obs::ScopedTimer timer(obs::histogram(obs::m::workload_ds_episode_seconds));
  RBVC_REQUIRE(e.honest_inputs.size() + e.byzantine_ids.size() == e.n,
               "run_broadcast_experiment: inputs + faulty ids must cover n");
  RBVC_REQUIRE(e.byzantine_ids.size() <= e.f,
               "run_broadcast_experiment: more faulty ids than the budget");
  RBVC_REQUIRE(!e.honest_inputs.empty(),
               "run_broadcast_experiment: need at least one correct process");
  const std::size_t d = e.honest_inputs.front().size();

  sim::SyncEngine engine;
  engine.trace().set_enabled(e.capture_trace);
  if (e.record) {
    e.record->clear();
    engine.set_schedule_log(e.record);
  }
  Rng seeds(e.seed);
  ChoiceStack choices(e.choices, e.replay, e.record);
  sim::SignatureAuthority authority(seeds.next_u64());
  const protocols::DecisionFn resolve_only =
      make_decision(SyncRule::kFirstResolved, e.f);
  std::vector<std::size_t> correct_ids;
  std::size_t next_input = 0;
  for (std::size_t id = 0; id < e.n; ++id) {
    if (is_byzantine(e.byzantine_ids, id)) {
      engine.add(make_ds_byzantine(e.strategy, e.n, e.f, id, d,
                                   seeds.next_u64(), authority.signer_for(id),
                                   &authority, &choices.recorder));
    } else {
      auto p = std::make_unique<protocols::DolevStrongProcess>(
          e.n, e.f, id, e.honest_inputs.at(next_input++), zeros(d),
          resolve_only, authority.signer_for(id), &authority);
      p->set_validate_chains(e.validate_chains);
      engine.add(std::move(p));
      correct_ids.push_back(id);
    }
  }

  BroadcastOutcome out;
  out.honest_inputs = e.honest_inputs;
  out.correct_ids = correct_ids;
  out.stats =
      engine.run(protocols::DolevStrongProcess::rounds_needed(e.f));
  out.trace = engine.trace();
  for (std::size_t id : correct_ids) {
    out.resolved.push_back(
        dynamic_cast<protocols::DolevStrongProcess&>(engine.process(id))
            .resolved_inputs());
  }
  return out;
}

}  // namespace rbvc::workload
