#include "mc/choices.h"

namespace rbvc::mc {

std::size_t FirstChoice::choose(std::size_t arity) {
  RBVC_REQUIRE(arity >= 1, "FirstChoice: arity must be >= 1");
  return 0;
}

std::size_t ChoiceReplayer::choose(std::size_t arity) {
  RBVC_REQUIRE(arity >= 1, "ChoiceReplayer: arity must be >= 1");
  if (!log_) return 0;
  while (next_ < log_->size() &&
         log_->entries()[next_].kind != sim::ScheduleEntryKind::kChoice) {
    ++next_;
  }
  if (next_ >= log_->size()) return 0;  // exhausted: first option
  const std::uint64_t raw = log_->entries()[next_++].value;
  return static_cast<std::size_t>(raw % arity);
}

std::size_t RecordingChoices::choose(std::size_t arity) {
  const std::size_t opt = inner_.choose(arity);
  if (log_) log_->add_choice(opt);
  return opt;
}

std::size_t SourceScheduler::pick(const sim::PendingPool& pending) {
  const std::size_t idx = source_.pick(pending);
  RBVC_REQUIRE(idx < pending.size(), "SourceScheduler: pick out of range");
  return idx;
}

}  // namespace rbvc::mc
