#include "sim/schedule_log.h"

#include <algorithm>

namespace rbvc::sim {

void ScheduleLog::add_pick(std::size_t index) {
  entries_.push_back({ScheduleEntryKind::kPick, index});
}

void ScheduleLog::add_round(std::size_t messages) {
  entries_.push_back({ScheduleEntryKind::kRound, messages});
}

void ScheduleLog::add_choice(std::size_t option) {
  entries_.push_back({ScheduleEntryKind::kChoice, option});
}

std::size_t ScheduleLog::pick_count() const {
  std::size_t n = 0;
  for (const ScheduleEntry& e : entries_) {
    if (e.kind == ScheduleEntryKind::kPick) ++n;
  }
  return n;
}

std::size_t ScheduleLog::choice_count() const {
  std::size_t n = 0;
  for (const ScheduleEntry& e : entries_) {
    if (e.kind == ScheduleEntryKind::kChoice) ++n;
  }
  return n;
}

void ScheduleLog::erase_range(std::size_t first, std::size_t count) {
  RBVC_REQUIRE(first <= entries_.size(), "erase_range: first out of range");
  const std::size_t last = std::min(first + count, entries_.size());
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(first),
                 entries_.begin() + static_cast<std::ptrdiff_t>(last));
}

void ScheduleLog::set_value(std::size_t i, std::uint64_t value) {
  RBVC_REQUIRE(i < entries_.size(), "set_value: index out of range");
  entries_[i].value = value;
}

namespace {
char entry_tag(ScheduleEntryKind kind) {
  switch (kind) {
    case ScheduleEntryKind::kPick:
      return 'p';
    case ScheduleEntryKind::kRound:
      return 'r';
    case ScheduleEntryKind::kChoice:
      return 'c';
  }
  return '?';
}
}  // namespace

std::string ScheduleLog::serialize() const {
  std::string out;
  for (const ScheduleEntry& e : entries_) {
    if (!out.empty()) out += ' ';
    out += entry_tag(e.kind);
    out += std::to_string(e.value);
  }
  return out;
}

ScheduleLog ScheduleLog::parse(const std::string& text) {
  ScheduleLog log;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ' || text[i] == '\t' || text[i] == '\n') {
      ++i;
      continue;
    }
    const char tag = text[i++];
    RBVC_REQUIRE(tag == 'p' || tag == 'r' || tag == 'c',
                 "ScheduleLog::parse: unknown entry tag");
    std::uint64_t value = 0;
    bool any = false;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
      any = true;
      ++i;
    }
    RBVC_REQUIRE(any, "ScheduleLog::parse: entry tag without a value");
    const ScheduleEntryKind kind = tag == 'p'   ? ScheduleEntryKind::kPick
                                   : tag == 'c' ? ScheduleEntryKind::kChoice
                                                : ScheduleEntryKind::kRound;
    log.entries_.push_back({kind, value});
  }
  return log;
}

std::string describe_divergence(const ScheduleLog& expected,
                                const ScheduleLog& actual) {
  auto token = [](const ScheduleEntry& e) {
    return std::string(1, entry_tag(e.kind)) + std::to_string(e.value);
  };
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected.entries()[i] == actual.entries()[i]) continue;
    return "schedule divergence at entry " + std::to_string(i) +
           ": expected " + token(expected.entries()[i]) + ", re-run produced " +
           token(actual.entries()[i]);
  }
  if (expected.size() != actual.size()) {
    return "schedule divergence: recorded " + std::to_string(expected.size()) +
           " entries, re-run produced " + std::to_string(actual.size());
  }
  return "";
}

std::size_t ReplayScheduler::pick(const PendingPool& pending) {
  RBVC_REQUIRE(!pending.empty(), "ReplayScheduler: nothing pending");
  while (next_ < log_.size() &&
         log_.entries()[next_].kind != ScheduleEntryKind::kPick) {
    ++next_;
  }
  if (next_ >= log_.size()) return 0;  // exhausted: FIFO is fair
  const std::uint64_t raw = log_.entries()[next_++].value;
  return static_cast<std::size_t>(raw % pending.size());
}

}  // namespace rbvc::sim
