// Schedule recording and replay: the complete nondeterminism record of an
// engine run. For the async engine every scheduler decision (the index of
// the pending message delivered) is logged; for the sync engine the
// per-round message counts are logged as divergence checkpoints. Explicit
// adversary decisions (choice-driven Byzantine strategies, see
// mc/choices.h) are logged as a third entry kind. All other randomness
// (input generators, seeded strategies) derives from the experiment seed,
// so (config, ScheduleLog) reproduces a run byte-for-byte.
//
// Replay consumes each entry kind through an independent cursor
// (ReplayScheduler pops kPick entries, mc::ChoiceReplayer pops kChoice
// entries), so the interleaving of kinds in the log never matters -- only
// the order within each kind's subsequence.
//
// The serialized form is a single line of whitespace-separated tokens
// ("p3 p0 p7 ..." for picks, "c1" for adversary choices, "r12" for round
// checkpoints), compact enough to embed in repro files and stable enough
// to diff.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/async_engine.h"

namespace rbvc::sim {

enum class ScheduleEntryKind { kPick, kRound, kChoice };

struct ScheduleEntry {
  ScheduleEntryKind kind = ScheduleEntryKind::kPick;
  std::uint64_t value = 0;

  bool operator==(const ScheduleEntry&) const = default;
};

class ScheduleLog {
 public:
  /// Async engine: index of the pending message the scheduler delivered.
  void add_pick(std::size_t index);
  /// Sync engine: number of messages sent in a completed round.
  void add_round(std::size_t messages);
  /// Adversary decision: the option index a Byzantine strategy took
  /// (mc/choices.h).
  void add_choice(std::size_t option);

  const std::vector<ScheduleEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::size_t pick_count() const;
  std::size_t choice_count() const;
  void clear() { entries_.clear(); }

  // Mutation surface for the shrinker.
  void erase_range(std::size_t first, std::size_t count);
  void set_value(std::size_t i, std::uint64_t value);

  /// One line of tokens: "p<idx>" per pick, "c<opt>" per choice, "r<count>"
  /// per round.
  std::string serialize() const;
  /// Inverse of serialize(). Throws invalid_argument on malformed input.
  static ScheduleLog parse(const std::string& text);

  bool operator==(const ScheduleLog&) const = default;

 private:
  std::vector<ScheduleEntry> entries_;
};

/// Compares a recorded schedule against a re-recorded one and describes the
/// first point of divergence ("" when identical). Sync and Dolev-Strong
/// repro files use this as their replay check: those runs are deterministic
/// given the config, so any mismatch between the stored round checkpoints
/// and a re-run means the repro no longer reproduces the original execution
/// (stale file, edited log, or changed code) and must be reported rather
/// than silently ignored.
std::string describe_divergence(const ScheduleLog& expected,
                                const ScheduleLog& actual);

/// Replays a recorded schedule: each pick() pops the next kPick entry.
/// Shrunk or hand-edited logs stay valid: an out-of-range index wraps
/// (value % pending), and an exhausted log falls back to FIFO delivery
/// (index 0), which is fair, so replay always terminates like a live run.
class ReplayScheduler final : public Scheduler {
 public:
  explicit ReplayScheduler(ScheduleLog log) : log_(std::move(log)) {}

  std::size_t pick(const PendingPool& pending) override;

  /// Entries consumed so far (for diagnosing divergent replays).
  std::size_t consumed() const { return next_; }

 private:
  ScheduleLog log_;
  std::size_t next_ = 0;
};

}  // namespace rbvc::sim
