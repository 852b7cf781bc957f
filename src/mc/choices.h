// Unified nondeterminism source for bounded exhaustive exploration.
//
// The async engine already funnels its one nondeterministic decision -- which
// pending message to deliver -- through sim::Scheduler. A ChoiceSource
// generalizes that to *adversary* decisions as well: a choice-driven
// Byzantine strategy (workload::AsyncStrategy::kChoiceEquivocate and the
// sync counterparts) asks `choose(arity)` at every branch point instead of
// flipping seeded coins, so the model checker (mc/explorer.h) can enumerate
// every adversary behavior the strategy spans, and a recorded run can
// replay them deterministically.
//
// Both decision kinds land in one sim::ScheduleLog -- picks as kPick (the
// engine records those itself), choices as kChoice (RecordingChoices
// records them) -- and replay consumes each kind through an independent
// cursor, so the interleaving of kinds in the log never matters. The
// ChoiceReplayer mirrors ReplayScheduler's robustness contract (wrap
// out-of-range values, fall back to option 0 when the log is exhausted),
// which is what keeps every schedule the shrinker proposes executable.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/async_engine.h"
#include "sim/schedule_log.h"

namespace rbvc::mc {

/// A source of nondeterministic decisions. `choose` answers adversary
/// branch points; `pick` answers scheduler delivery decisions (async model
/// only). They are separate methods -- not one -- because the explorer
/// applies partial-order reduction to picks (deliveries commute when their
/// recipients differ) but never to choices.
class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;

  /// Returns an option index in [0, arity). arity must be >= 1.
  virtual std::size_t choose(std::size_t arity) = 0;

  /// Returns the index of the pending message to deliver (indexing as in
  /// sim::Scheduler). Default: FIFO, so a pure-choice source can drive an
  /// async run without overriding it.
  virtual std::size_t pick(const sim::PendingPool& pending) {
    (void)pending;
    return 0;
  }
};

/// Always takes the first option (and delivers FIFO). The behavior of a
/// choice-driven strategy when no explorer or replay log is attached.
class FirstChoice final : public ChoiceSource {
 public:
  std::size_t choose(std::size_t arity) override;
};

/// Replays the kChoice subsequence of a recorded log. Out-of-range values
/// wrap (value % arity) and an exhausted (or null) log falls back to option
/// 0, so shrunk or hand-edited logs stay valid -- the same contract as
/// sim::ReplayScheduler for picks.
class ChoiceReplayer final : public ChoiceSource {
 public:
  explicit ChoiceReplayer(const sim::ScheduleLog* log) : log_(log) {}

  std::size_t choose(std::size_t arity) override;

  /// Entries consumed so far (for diagnosing divergent replays).
  std::size_t consumed() const { return next_; }

 private:
  const sim::ScheduleLog* log_;  // may be null: every choice is 0
  std::size_t next_ = 0;
};

/// Forwards to an inner source, appending each effective (post-wrap) choice
/// to a log as kChoice. Picks are forwarded *without* recording: the async
/// engine already records its picks into its own schedule log, and double
/// entries would corrupt replay.
class RecordingChoices final : public ChoiceSource {
 public:
  RecordingChoices(ChoiceSource& inner, sim::ScheduleLog* log)
      : inner_(inner), log_(log) {}

  std::size_t choose(std::size_t arity) override;
  std::size_t pick(const sim::PendingPool& pending) override {
    return inner_.pick(pending);
  }

 private:
  ChoiceSource& inner_;
  sim::ScheduleLog* log_;  // may be null: pure passthrough
};

/// Adapts a ChoiceSource to the engine's Scheduler interface, so one
/// source object drives both decision kinds of an async run.
class SourceScheduler final : public sim::Scheduler {
 public:
  explicit SourceScheduler(ChoiceSource& source) : source_(source) {}

  std::size_t pick(const sim::PendingPool& pending) override;

 private:
  ChoiceSource& source_;
};

}  // namespace rbvc::mc
