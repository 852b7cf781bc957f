#include "exec/parallel_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"

namespace rbvc::exec {

namespace {

/// Backstop against absurd RBVC_JOBS values: more workers than this only
/// adds scheduling noise, never throughput.
constexpr std::size_t kMaxJobs = 256;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::size_t env_jobs() {
  const char* env = std::getenv("RBVC_JOBS");
  if (!env || !*env) return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

std::size_t default_jobs() {
  if (const std::size_t e = env_jobs()) return e;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

ParallelExecutor::ParallelExecutor(std::size_t jobs)
    : jobs_(std::min(jobs ? jobs : default_jobs(), kMaxJobs)) {
  // Mint every exec.* metric up front, whatever the width: the registry
  // never erases entries, so the set of metric names -- and with it the
  // byte layout of any registry snapshot (e.g. the one embedded in repro
  // files) -- must not depend on how many workers ran.
  obs::gauge(obs::m::exec_jobs).set(static_cast<double>(jobs_));
  obs::counter(obs::m::exec_batches);
  obs::counter(obs::m::exec_tasks);
  obs::counter(obs::m::exec_tasks_skipped);
  obs::counter(obs::m::exec_steals);
  obs::histogram(obs::m::exec_queue_depth);
  obs::histogram(obs::m::exec_worker_busy_seconds);
  if (jobs_ <= 1) return;  // inline mode: no queues, no threads
  queues_.reserve(jobs_);
  for (std::size_t w = 0; w < jobs_; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(jobs_);
  for (std::size_t w = 0; w < jobs_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ParallelExecutor::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& task) {
  const std::function<bool(std::size_t)> body = [&task](std::size_t i) {
    task(i);
    return false;
  };
  run_batch(n, body, /*early_exit=*/false);
}

std::size_t ParallelExecutor::find_first(
    std::size_t n, const std::function<bool(std::size_t)>& pred) {
  return run_batch(n, pred, /*early_exit=*/true);
}

std::size_t ParallelExecutor::run_batch(
    std::size_t n, const std::function<bool(std::size_t)>& body,
    bool early_exit) {
  if (n == 0) return kNoIndex;
  obs::counter(obs::m::exec_batches).inc();
  if (jobs_ <= 1 || threads_.empty() || n == 1) {
    // Inline serial path: index order, caller's thread, no pool machinery.
    std::size_t hit = kNoIndex;
    for (std::size_t i = 0; i < n; ++i) {
      obs::counter(obs::m::exec_tasks).inc();
      if (body(i)) {
        if (hit == kNoIndex) hit = i;
        if (early_exit) break;
      }
    }
    return hit;
  }

  std::unique_lock<std::mutex> lock(mu_);
  // A straggler that woke up late for the previous batch may still be
  // inside drain(); queues must not be republished under it.
  done_cv_.wait(lock, [&] { return busy_workers_ == 0; });
  best_.store(kNoIndex, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  remaining_.store(n, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    // Round-robin so low indices spread across workers and (popped from the
    // deque fronts) run early -- find_first cancels more work that way.
    WorkerQueue& wq = *queues_[i % jobs_];
    std::lock_guard<std::mutex> ql(wq.mu);
    wq.q.push_back(i);
  }
  ++batch_id_;
  body_ = &body;
  early_exit_ = early_exit;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] {
    return remaining_.load(std::memory_order_acquire) == 0 &&
           busy_workers_ == 0;
  });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
  return best_.load(std::memory_order_relaxed);
}

void ParallelExecutor::worker_main(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<bool(std::size_t)>* body = nullptr;
    bool early = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || batch_id_ != seen; });
      if (shutdown_) return;
      seen = batch_id_;
      body = body_;
      early = early_exit_;
      if (body == nullptr) continue;  // batch already fully drained
      ++busy_workers_;
    }
    drain(w, *body, early);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_workers_;
    }
    done_cv_.notify_all();
  }
}

void ParallelExecutor::drain(std::size_t w,
                             const std::function<bool(std::size_t)>& body,
                             bool early_exit) {
  double busy_seconds = 0.0;
  std::size_t idx = 0;
  while (acquire(w, idx)) {
    const bool skip =
        abort_.load(std::memory_order_relaxed) ||
        (early_exit && idx > best_.load(std::memory_order_relaxed));
    if (skip) {
      obs::counter(obs::m::exec_tasks_skipped).inc();
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        if (body(idx) && early_exit) {
          // CAS-min: idx becomes the lowest hit unless a lower one is known.
          std::size_t cur = best_.load(std::memory_order_relaxed);
          while (idx < cur &&
                 !best_.compare_exchange_weak(cur, idx,
                                              std::memory_order_relaxed)) {
          }
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!error_) error_ = std::current_exception();
        }
        abort_.store(true, std::memory_order_relaxed);
      }
      busy_seconds += seconds_since(t0);
      obs::counter(obs::m::exec_tasks).inc();
    }
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
  obs::histogram(obs::m::exec_worker_busy_seconds).observe(busy_seconds);
}

bool ParallelExecutor::acquire(std::size_t w, std::size_t& idx) {
  {
    WorkerQueue& mine = *queues_[w];
    std::lock_guard<std::mutex> lock(mine.mu);
    if (!mine.q.empty()) {
      obs::histogram(obs::m::exec_queue_depth)
          .observe(static_cast<double>(mine.q.size()));
      idx = mine.q.front();
      mine.q.pop_front();
      return true;
    }
  }
  for (std::size_t off = 1; off < jobs_; ++off) {
    WorkerQueue& victim = *queues_[(w + off) % jobs_];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.q.empty()) {
      // Steal from the back: the victim keeps its low (soon-run) indices.
      idx = victim.q.back();
      victim.q.pop_back();
      obs::counter(obs::m::exec_steals).inc();
      return true;
    }
  }
  return false;
}

}  // namespace rbvc::exec
