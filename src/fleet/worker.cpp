#include "fleet/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "exec/parallel_executor.h"
#include "obs/metrics.h"

namespace rbvc::fleet {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Per-shard telemetry as a detached registry dump: never touches the
/// process-global registry (see the header's byte-identity invariant).
std::string shard_metrics_json(std::uint64_t episodes_run, double wall_ms) {
  obs::Registry reg;
  reg.counter(obs::name(obs::m::fleet_shard_episodes)).inc(episodes_run);
  reg.gauge(obs::name(obs::m::fleet_shard_wall_ms)).set(wall_ms);
  reg.gauge(obs::name(obs::m::fleet_shard_episodes_per_s))
      .set(wall_ms > 0 ? 1000.0 * static_cast<double>(episodes_run) / wall_ms
                       : 0.0);
  return reg.dump_json();
}

}  // namespace

int run_worker(int fd, const WorkerJob& job, const WorkerOptions& opts) {
  if (!job.episode || !job.failure_report) {
    throw std::invalid_argument("fleet: worker job requires both closures");
  }
  // One pool for the whole session: shards reuse the threads, and the
  // exec.* registry entries are minted once up front exactly as a
  // single-process sweep would mint them.
  exec::ParallelExecutor pool(job.jobs);

  std::mutex send_mu;
  auto send_frame = [&](const std::string& bytes) {
    std::lock_guard<std::mutex> lk(send_mu);
    return send_all(fd, bytes);
  };

  if (!send_frame(frame_hello(
          Hello{static_cast<std::uint64_t>(::getpid()), pool.jobs()}))) {
    return 1;
  }

  std::atomic<std::uint64_t> episodes_done{0};
  std::atomic<std::int64_t> last_heartbeat_ms{now_ms()};
  std::atomic<bool> peer_gone{false};

  // Heartbeats ride between episodes: any pool thread that notices the
  // interval elapsed elects itself via compare_exchange and sends one.
  // A hung episode therefore stops the heartbeat stream, which is exactly
  // what lets the coordinator's timeout declare this worker dead.
  auto maybe_heartbeat = [&] {
    const std::int64_t now = now_ms();
    std::int64_t last = last_heartbeat_ms.load(std::memory_order_relaxed);
    if (now - last < opts.heartbeat_interval_ms) return;
    if (!last_heartbeat_ms.compare_exchange_strong(last, now,
                                                   std::memory_order_relaxed)) {
      return;  // another thread is sending this one
    }
    if (!send_frame(frame_heartbeat(
            Heartbeat{episodes_done.load(std::memory_order_relaxed)}))) {
      peer_gone.store(true, std::memory_order_relaxed);
    }
  };

  std::string rdbuf;
  for (;;) {
    const auto frame = read_frame(fd, rdbuf);
    if (!frame) return 1;  // coordinator hung up
    switch (frame->type) {
      case net::wire::FrameType::kFleetShutdown:
        return 0;
      case net::wire::FrameType::kFleetAssign: {
        const Assign a = decode_assign(frame->body);
        const auto t0 = Clock::now();
        std::atomic<std::uint64_t> ran{0};
        const std::size_t local_hit = pool.find_first(
            static_cast<std::size_t>(a.end - a.begin), [&](std::size_t i) {
              maybe_heartbeat();
              ran.fetch_add(1, std::memory_order_relaxed);
              episodes_done.fetch_add(1, std::memory_order_relaxed);
              return job.episode(static_cast<std::size_t>(a.begin) + i);
            });
        const double wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();

        ShardResult res;
        res.shard_id = a.shard_id;
        res.begin = a.begin;
        res.end = a.end;
        res.failing = local_hit == exec::kNoIndex
                          ? kNoEpisode
                          : a.begin + static_cast<std::uint64_t>(local_hit);
        res.metrics_json = shard_metrics_json(
            ran.load(std::memory_order_relaxed), wall_ms);
        if (!send_frame(frame_result(res))) return 1;
        if (res.failing != kNoEpisode) {
          // The failure tail runs on this (single) thread, exactly like
          // the single-process path, and the report ships verbatim. A
          // minimize can replay for a while with no episodes ticking, so
          // a scoped thread keeps heartbeats flowing meanwhile.
          std::mutex hb_mu;
          std::condition_variable hb_cv;
          bool tail_done = false;
          std::thread hb([&] {
            std::unique_lock<std::mutex> lk(hb_mu);
            while (!hb_cv.wait_for(
                lk, std::chrono::milliseconds(opts.heartbeat_interval_ms),
                [&] { return tail_done; })) {
              lk.unlock();
              maybe_heartbeat();
              lk.lock();
            }
          });
          FailureReport rep =
              job.failure_report(static_cast<std::size_t>(res.failing));
          rep.episode = res.failing;
          {
            std::lock_guard<std::mutex> lk(hb_mu);
            tail_done = true;
          }
          hb_cv.notify_one();
          hb.join();
          if (!send_frame(frame_failure(rep))) return 1;
        }
        if (peer_gone.load(std::memory_order_relaxed)) return 1;
        break;
      }
      default:
        throw net::wire::WireError(
            "wire: unexpected fleet frame type " +
            std::to_string(static_cast<unsigned>(frame->type)) +
            " at worker");
    }
  }
}

}  // namespace rbvc::fleet
