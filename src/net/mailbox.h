// Lock-free multi-producer / single-consumer mailbox: the delivery queue
// behind every pull-based transport endpoint (LocalBus, TcpTransport).
//
// Producers push onto an intrusive Treiber stack (one atomic exchange, no
// locks, no waiting); the consumer grabs the whole stack with one exchange
// and reverses it into a local FIFO batch. A counting semaphore carries
// wake hints -- one release per push (after the node is published) and one
// per close() -- so a blocked pop() never misses a concurrent push: if the
// consumer's drain raced past a node, the producer's release is still
// pending and re-wakes the loop. Hints are not message-exact (a drain can
// scoop several nodes on one wake), so the pop loop re-checks the queue on
// every wake-up instead of trusting the permit count.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <iterator>
#include <optional>
#include <semaphore>
#include <vector>

#include "obs/events.h"
#include "sim/message.h"

namespace rbvc::net {

class Mailbox {
 public:
  Mailbox() = default;
  ~Mailbox() {
    Node* n = head_.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Any thread. Publishes the message and wakes one pending pop().
  void push(sim::Message m) {
    Node* node = new Node{std::move(m), nullptr, obs::events::now_ns()};
    // Count before publishing: the consumer can scoop and pop the node as
    // soon as the CAS lands, and its decrement must not run first (depth()
    // would wrap to 2^64-1).
    depth_.fetch_add(1, std::memory_order_relaxed);
    Node* old = head_.load(std::memory_order_relaxed);
    do {
      node->next = old;
    } while (!head_.compare_exchange_weak(old, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    sem_.release();
  }

  /// Consumer thread only. Next message in per-producer FIFO order, waiting
  /// up to timeout_ms (0 = non-blocking); nullopt on timeout or close.
  std::optional<sim::Message> pop(int timeout_ms) {
    if (!batch_.empty()) return take_from_batch();
    refill();
    if (!batch_.empty()) return take_from_batch();
    if (timeout_ms <= 0 || closed()) return std::nullopt;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero() ||
          !sem_.try_acquire_for(left)) {
        refill();  // one final scoop for a push that raced the deadline
        return batch_.empty() ? std::nullopt : take_from_batch();
      }
      refill();
      if (!batch_.empty()) return take_from_batch();
      if (closed()) return std::nullopt;
      // Spurious hint (its messages were scooped by an earlier drain);
      // keep waiting out the deadline.
    }
  }

  /// Any thread. Unblocks the consumer permanently.
  void close() {
    closed_.store(true, std::memory_order_release);
    sem_.release();
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate queued-message count (for the net.queue_depth gauge).
  std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

  /// Consumer thread only. Queue wait (push -> pop, ns) of the message the
  /// most recent successful pop() returned -- the transport rx-queue share
  /// of the latency attribution (kQueuePop events).
  std::uint64_t last_pop_wait_ns() const { return last_pop_wait_ns_; }

 private:
  struct Node {
    sim::Message m;
    Node* next;
    std::uint64_t enqueued_ns;  // obs::events::now_ns() at push
  };
  struct Entry {
    sim::Message m;
    std::uint64_t enqueued_ns;
  };

  std::optional<sim::Message> take_from_batch() {
    Entry e = std::move(batch_.front());
    batch_.pop_front();
    depth_.fetch_sub(1, std::memory_order_relaxed);
    const std::uint64_t now = obs::events::now_ns();
    last_pop_wait_ns_ = now > e.enqueued_ns ? now - e.enqueued_ns : 0;
    return std::move(e.m);
  }

  void refill() {
    Node* n = head_.exchange(nullptr, std::memory_order_acquire);
    if (n == nullptr) return;
    // The stack is LIFO (newest first) and everything scooped here is newer
    // than anything already batched, so collect then append reversed: O(k),
    // not the O(k^2) of inserting each node mid-deque.
    scratch_.clear();
    while (n != nullptr) {
      scratch_.push_back(Entry{std::move(n->m), n->enqueued_ns});
      Node* next = n->next;
      delete n;
      n = next;
    }
    batch_.insert(batch_.end(), std::make_move_iterator(scratch_.rbegin()),
                  std::make_move_iterator(scratch_.rend()));
  }

  std::atomic<Node*> head_{nullptr};
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};
  std::counting_semaphore<> sem_{0};
  std::deque<Entry> batch_;     // consumer-local, FIFO order
  std::vector<Entry> scratch_;  // refill staging, reused across drains
  std::uint64_t last_pop_wait_ns_ = 0;
};

}  // namespace rbvc::net
