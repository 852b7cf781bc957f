#include "fleet/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace rbvc::fleet {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Episodes actually run in a shard, from the worker's snapshot; falls
/// back to the range size when the snapshot does not parse (a worker bug
/// must not take the sweep down).
std::uint64_t snapshot_episodes(const ShardResult& res) {
  try {
    const obs::Registry reg = obs::Registry::parse(res.metrics_json);
    if (const obs::Counter* c =
            reg.find_counter(obs::name(obs::m::fleet_shard_episodes))) {
      return c->value();
    }
  } catch (const std::exception&) {
  }
  return res.end - res.begin;
}

}  // namespace

Coordinator::Coordinator(const SweepConfig& cfg)
    : cfg_(cfg),
      merge_(cfg.episodes),
      restarts_left_(cfg.max_restarts ? cfg.max_restarts : cfg.workers) {
  cfg_.min_shard = std::max<std::uint64_t>(1, cfg_.min_shard);
  cfg_.max_shard = std::max(cfg_.min_shard, cfg_.max_shard);
  cfg_.oversubscribe = std::max<std::uint64_t>(1, cfg_.oversubscribe);
}

Coordinator::~Coordinator() {
  for (Worker& w : workers_) {
    if (w.fd >= 0) ::close(w.fd);
    if (w.pid > 0 && !w.reaped) {
      ::kill(static_cast<pid_t>(w.pid), SIGKILL);
      ::waitpid(static_cast<pid_t>(w.pid), nullptr, 0);
    }
  }
}

void Coordinator::add_worker(int fd, long pid) {
  Worker w;
  w.fd = fd;
  w.pid = pid;
  w.id = workers_.size();
  w.last_frame_ms = now_ms();
  workers_.push_back(std::move(w));
  ++stats_.workers_spawned;
}

std::optional<Assign> Coordinator::next_range() {
  // Drop orphans the merge already covers (a reassignment raced its
  // presumed-dead owner and both completed).
  while (!orphans_.empty() &&
         orphans_.begin()->second <= merge_.covered_upto()) {
    orphans_.erase(orphans_.begin());
  }
  if (!orphans_.empty()) {
    const auto [begin, end] = *orphans_.begin();
    if (merge_.needs(begin)) {
      orphans_.erase(orphans_.begin());
      return Assign{next_shard_id_++, begin, end};
    }
    return std::nullopt;  // sorted: every orphan is above the candidate
  }
  // Fresh ranges always start above every completed shard, so once a
  // candidate failure exists they can never lower it -- stop issuing.
  if (merge_.has_candidate() || next_fresh_ >= cfg_.episodes) {
    return std::nullopt;
  }
  const std::uint64_t remaining = cfg_.episodes - next_fresh_;
  const std::uint64_t target =
      remaining / (static_cast<std::uint64_t>(cfg_.workers) *
                   cfg_.oversubscribe);
  const std::uint64_t chunk = std::min(
      remaining, std::clamp(target, cfg_.min_shard, cfg_.max_shard));
  const Assign a{next_shard_id_++, next_fresh_, next_fresh_ + chunk};
  next_fresh_ += chunk;
  return a;
}

void Coordinator::issue(Worker& w) {
  if (!w.alive || !w.hello || w.outstanding) return;
  const auto a = next_range();
  if (!a) return;
  if (!send_all(w.fd, frame_assign(*a))) {
    // Hand the range straight back before marking the death, so the
    // requeue in mark_dead does not double-count it.
    orphans_[a->begin] = std::max(orphans_[a->begin], a->end);
    mark_dead(w, "assign write failed");
    return;
  }
  w.outstanding = *a;
  ++stats_.shards_issued;
}

void Coordinator::complete_shard(Worker& w, const ShardResult& res) {
  ++stats_.shards_completed;
  stats_.episodes_run += snapshot_episodes(res);
  merge_.complete(res.begin, res.end, res.failing);
  w.outstanding.reset();
  w.pending_result.reset();
}

void Coordinator::handle_frame(Worker& w, const net::wire::Frame& f) {
  using net::wire::FrameType;
  w.last_frame_ms = now_ms();
  switch (f.type) {
    case FrameType::kFleetHello: {
      (void)decode_hello(f.body);
      w.hello = true;
      break;
    }
    case FrameType::kFleetHeartbeat: {
      w.episodes_done = decode_heartbeat(f.body).episodes_done;
      ++stats_.heartbeats;
      break;
    }
    case FrameType::kFleetResult: {
      const ShardResult res = decode_result(f.body);
      if (!w.outstanding || w.outstanding->shard_id != res.shard_id) {
        throw net::wire::WireError("wire: fleet result for unknown shard");
      }
      if (res.failing == kNoEpisode) {
        complete_shard(w, res);
      } else {
        if (first_candidate_ms_ < 0) first_candidate_ms_ = now_ms();
        // Park until the failure report lands; a death in between
        // requeues the whole range (mark_dead), keeping the merge exact.
        w.pending_result = res;
      }
      break;
    }
    case FrameType::kFleetFailure: {
      FailureReport rep = decode_failure(f.body);
      if (!w.pending_result || w.pending_result->failing != rep.episode) {
        throw net::wire::WireError(
            "wire: fleet failure report without matching result");
      }
      ++stats_.failures_reported;
      reports_.emplace(rep.episode, std::move(rep));
      complete_shard(w, *w.pending_result);
      break;
    }
    default:
      throw net::wire::WireError(
          "wire: unexpected fleet frame type " +
          std::to_string(static_cast<unsigned>(f.type)) + " at coordinator");
  }
}

void Coordinator::mark_dead(Worker& w, const char* why) {
  if (!w.alive) return;
  w.alive = false;
  ++stats_.worker_deaths;
  std::fprintf(stderr, "fleet: worker %llu (pid %ld) dead: %s\n",
               static_cast<unsigned long long>(w.id), w.pid, why);
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.pid > 0) {
    ::kill(static_cast<pid_t>(w.pid), SIGKILL);  // no-op if already gone
    if (::waitpid(static_cast<pid_t>(w.pid), nullptr, WNOHANG) > 0) {
      w.reaped = true;
    }
  }
  if (w.outstanding) {
    // Orphaned: the range (result pending or not) must re-run for the
    // merge to cover it. Requeue whole; next_range() reissues in order.
    orphans_[w.outstanding->begin] =
        std::max(orphans_[w.outstanding->begin], w.outstanding->end);
    ++stats_.shards_reassigned;
    w.outstanding.reset();
    w.pending_result.reset();
  }
  if (restarts_left_ > 0 && respawn_) {
    const auto [fd, pid] = respawn_();
    if (fd >= 0) {
      --restarts_left_;
      ++stats_.worker_restarts;
      add_worker(fd, pid);
    }
  }
}

void Coordinator::maybe_chaos_kill() {
  if (chaos_killed_ || cfg_.chaos_kill_after_shards == 0 ||
      stats_.shards_completed < cfg_.chaos_kill_after_shards) {
    return;
  }
  Worker* victim = nullptr;
  for (Worker& w : workers_) {
    if (!w.alive || w.pid <= 0) continue;
    if (!victim) victim = &w;
    if (w.outstanding) {  // prefer exercising the reassignment path
      victim = &w;
      break;
    }
  }
  if (!victim) return;
  chaos_killed_ = true;
  std::fprintf(stderr, "fleet: chaos kill of worker %llu (pid %ld)\n",
               static_cast<unsigned long long>(victim->id), victim->pid);
  ::kill(static_cast<pid_t>(victim->pid), SIGKILL);
  // Death is then observed through the normal channels (EOF / timeout).
}

bool Coordinator::done() const {
  if (!merge_.decided()) return false;
  return !merge_.has_candidate() ||
         reports_.count(merge_.candidate()) > 0;
}

SweepOutcome Coordinator::run() {
  const std::int64_t t_start_ms = now_ms();
  std::int64_t decided_ms = -1;
  while (!done()) {
    bool any_alive = false;
    for (Worker& w : workers_) {
      if (w.alive) {
        issue(w);
        any_alive = w.alive || any_alive;  // issue() may kill w
      }
    }
    for (const Worker& w : workers_) any_alive = any_alive || w.alive;
    if (!any_alive) {
      if (cfg_.publish_metrics) publish_metrics();
      throw std::runtime_error(
          "fleet: every worker died with episodes uncovered (deaths=" +
          std::to_string(stats_.worker_deaths) + ")");
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back(pollfd{workers_[i].fd, POLLIN, 0});
      idx.push_back(i);
    }
    const int rc = ::poll(fds.data(), fds.size(),
                          cfg_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error("fleet: poll failed");
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Worker& w = workers_[idx[k]];
      if (!w.alive) continue;
      char chunk[65536];
      const ssize_t n = ::recv(w.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno == ECONNRESET)) {
        mark_dead(w, "hangup");
        continue;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        mark_dead(w, "read error");
        continue;
      }
      w.rdbuf.append(chunk, static_cast<std::size_t>(n));
      try {
        while (auto f = net::wire::try_unframe(w.rdbuf)) {
          handle_frame(w, *f);
          if (done()) break;
        }
      } catch (const net::wire::WireError& e) {
        // Poisoned stream: this worker is gone as far as the sweep is
        // concerned; its range gets reassigned like any other death.
        mark_dead(w, e.what());
      }
      if (done()) break;
    }

    // Heartbeat timeouts: only workers that owe us something (a shard in
    // flight, or the initial hello) can go silent-dead; idle workers are
    // legitimately quiet.
    const std::int64_t now = now_ms();
    for (Worker& w : workers_) {
      if (!w.alive || (!w.outstanding && w.hello)) continue;
      if (now - w.last_frame_ms > cfg_.heartbeat_timeout_ms) {
        mark_dead(w, "heartbeat timeout");
      }
    }
    maybe_chaos_kill();
  }
  decided_ms = now_ms();

  SweepOutcome out;
  out.stats = stats_;  // filled further below
  if (merge_.has_candidate()) {
    const FailureReport& rep = reports_.at(merge_.candidate());
    out.failed = true;
    out.failing_episode = merge_.candidate();
    out.failure = rep.message;
    out.repro_text = rep.repro_text;
    out.original_len = rep.original_len;
    out.shrunk_len = rep.shrunk_len;
    out.episodes = merge_.candidate() + 1;
    out.stats.merge_latency_us =
        first_candidate_ms_ >= 0
            ? 1000.0 * static_cast<double>(decided_ms - first_candidate_ms_)
            : 0.0;
  } else {
    out.episodes = cfg_.episodes;
  }
  (void)t_start_ms;
  stats_.merge_latency_us = out.stats.merge_latency_us;
  finalize_fleet();
  if (cfg_.publish_metrics) publish_metrics();
  out.stats = stats_;
  return out;
}

void Coordinator::finalize_fleet() {
  // Polite shutdown for idle workers; SIGKILL for any still mid-shard
  // (their work is above the candidate and can never matter).
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    if (w.fd >= 0) (void)send_all(w.fd, frame_shutdown());
    if (w.outstanding && w.pid > 0) {
      ::kill(static_cast<pid_t>(w.pid), SIGKILL);
    }
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    w.alive = false;
  }
  for (Worker& w : workers_) {
    if (w.pid > 0 && !w.reaped) {
      // Bounded patience: idle workers exit on shutdown/EOF promptly; a
      // wedged one gets the axe.
      const std::int64_t deadline = now_ms() + 2000;
      for (;;) {
        const pid_t r =
            ::waitpid(static_cast<pid_t>(w.pid), nullptr, WNOHANG);
        if (r != 0) break;  // reaped (or ECHILD: someone else did)
        if (now_ms() > deadline) {
          ::kill(static_cast<pid_t>(w.pid), SIGKILL);
          ::waitpid(static_cast<pid_t>(w.pid), nullptr, 0);
          break;
        }
        ::usleep(2000);
      }
      w.reaped = true;
    }
  }
}

void Coordinator::publish_metrics() const {
  // The single registry touch-point of the fleet layer, reached only with
  // cfg_.publish_metrics set; see the header's byte-identity rationale for
  // why it is opt-in and must stay at end-of-sweep.
  obs::counter(obs::m::fleet_shards_issued).inc(stats_.shards_issued);
  obs::counter(obs::m::fleet_shards_completed).inc(stats_.shards_completed);
  obs::counter(obs::m::fleet_shards_reassigned).inc(stats_.shards_reassigned);
  obs::counter(obs::m::fleet_workers_spawned).inc(stats_.workers_spawned);
  obs::counter(obs::m::fleet_workers_deaths).inc(stats_.worker_deaths);
  obs::counter(obs::m::fleet_workers_restarts).inc(stats_.worker_restarts);
  obs::counter(obs::m::fleet_episodes_completed).inc(stats_.episodes_run);
  obs::counter(obs::m::fleet_heartbeats).inc(stats_.heartbeats);
  obs::counter(obs::m::fleet_failures_reported).inc(stats_.failures_reported);
  obs::gauge(obs::m::fleet_merge_latency_us).set(stats_.merge_latency_us);
}

}  // namespace rbvc::fleet
