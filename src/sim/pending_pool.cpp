#include "sim/pending_pool.h"

#include <bit>

#include "rbvc/common.h"

namespace rbvc::sim {

namespace {

constexpr std::size_t kWordBits = 64;
// Compaction threshold: slots >= 2 * live + kCompactSlack. The slack keeps
// small pools from compacting on every take.
constexpr std::size_t kCompactSlack = 256;

std::uint64_t bit_of(std::size_t slot) {
  return std::uint64_t{1} << (slot % kWordBits);
}

// Slot of the k-th (0-based) set bit; the bitmap must hold more than k.
std::size_t select(const std::vector<std::uint64_t>& bits, std::size_t k) {
  for (std::size_t w = 0;; ++w) {
    const auto ones = static_cast<std::size_t>(std::popcount(bits[w]));
    if (k < ones) {
      std::uint64_t word = bits[w];
      for (; k > 0; --k) word &= word - 1;  // clear the k lowest set bits
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
    }
    k -= ones;
  }
}

// Number of set bits strictly below `slot`.
std::size_t rank(const std::vector<std::uint64_t>& bits, std::size_t slot) {
  const std::size_t w = slot / kWordBits;
  std::size_t ones = 0;
  for (std::size_t i = 0; i < w; ++i) {
    ones += static_cast<std::size_t>(std::popcount(bits[i]));
  }
  return ones + static_cast<std::size_t>(
                    std::popcount(bits[w] & (bit_of(slot) - 1)));
}

}  // namespace

const Message& PendingPool::operator[](std::size_t i) const {
  RBVC_REQUIRE(i < live_, "PendingPool: index out of range");
  return slots_[select(live_bits_, i)];
}

std::size_t PendingPool::index_of_preferred(std::size_t k) const {
  RBVC_REQUIRE(k < preferred_, "PendingPool: preferred index out of range");
  return rank(live_bits_, select(pref_bits_, k));
}

void PendingPool::push(Message m, bool preferred) {
  const std::size_t s = slots_.size();
  if (s % kWordBits == 0) {
    live_bits_.push_back(0);
    pref_bits_.push_back(0);
  }
  slots_.push_back(std::move(m));
  live_bits_[s / kWordBits] |= bit_of(s);
  ++live_;
  if (preferred) {
    pref_bits_[s / kWordBits] |= bit_of(s);
    ++preferred_;
  }
}

Message PendingPool::take(std::size_t i) {
  RBVC_REQUIRE(i < live_, "PendingPool: index out of range");
  const std::size_t s = select(live_bits_, i);
  const std::size_t w = s / kWordBits;
  live_bits_[w] &= ~bit_of(s);
  --live_;
  if ((pref_bits_[w] & bit_of(s)) != 0) {
    pref_bits_[w] &= ~bit_of(s);
    --preferred_;
  }
  Message m = std::move(slots_[s]);
  if (slots_.size() >= 2 * live_ + kCompactSlack) compact();
  return m;
}

// Moves the live messages to the front in send order and rebuilds both
// bitmaps to match; indices are unchanged.
void PendingPool::compact() {
  const std::size_t words = (live_ + kWordBits - 1) / kWordBits;
  std::vector<std::uint64_t> pref(words, 0);
  std::size_t j = 0;
  for (std::size_t w = 0; w < live_bits_.size(); ++w) {
    for (std::uint64_t word = live_bits_[w]; word != 0; word &= word - 1) {
      const std::size_t s =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      if ((pref_bits_[w] & bit_of(s)) != 0) pref[j / kWordBits] |= bit_of(j);
      if (s != j) slots_[j] = std::move(slots_[s]);
      ++j;
    }
  }
  slots_.resize(live_);
  live_bits_.assign(words, ~std::uint64_t{0});
  if (live_ % kWordBits != 0) live_bits_.back() = bit_of(live_) - 1;
  pref_bits_ = std::move(pref);
}

}  // namespace rbvc::sim
