// The async engine's pool of sent-but-undelivered messages, indexed by age.
//
// Index i always names the i-th oldest pending message. Messages sit in send
// order in an append-only slot vector; two bitmaps (one bit per slot, 64 to
// a word) mark the live slots and the live slots whose message was pushed as
// *preferred* (sim::Scheduler::prefers, asked once per send). take(i)
// moves the message out and clears its slot's bits, so the survivors keep
// their relative order and every later index drops by one -- what erasing
// from a vector does, without shifting the others. Translating between
// indices and slots is a select or rank over the bitmap words: O(slots / 64)
// word operations. Dead slots are compacted away, in order, once they
// outnumber live ones by a fixed slack, so memory and scan length stay
// O(live).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.h"

namespace rbvc::sim {

class PendingPool {
 public:
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Live messages that were pushed as preferred.
  std::size_t preferred() const { return preferred_; }

  /// The i-th oldest pending message; i < size().
  const Message& operator[](std::size_t i) const;
  /// Pool index of the k-th oldest preferred message; k < preferred().
  std::size_t index_of_preferred(std::size_t k) const;

  /// Appends `m` as the newest pending message.
  void push(Message m, bool preferred);
  /// Removes the i-th oldest pending message and returns it; i < size().
  Message take(std::size_t i);

 private:
  void compact();

  std::vector<Message> slots_;              // send order; dead ones moved-from
  std::vector<std::uint64_t> live_bits_;    // bit s: slot s is pending
  std::vector<std::uint64_t> pref_bits_;    // bit s: pending and preferred
  std::size_t live_ = 0;
  std::size_t preferred_ = 0;
};

}  // namespace rbvc::sim
