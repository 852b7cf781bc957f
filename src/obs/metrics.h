// Run-telemetry layer: a Registry of named counters, gauges, and
// fixed-bucket histograms, plus RAII ScopedTimers, instrumenting the sim
// engines, protocols, geometry/LP kernels, and workload runners.
//
// Design points (see docs/OBSERVABILITY.md for the metric inventory):
//   * Recording is always on and cheap (a map lookup at handle creation,
//     an integer add per event); only *derived* metrics that cost real work
//     (e.g. the runner's achieved-delta gauge, which solves an LP) are
//     gated on Registry::enabled(), which defaults from the RBVC_METRICS
//     env knob.
//   * dump_json() is a stable serialization -- fixed key order (sorted),
//     fixed number formatting (%.17g doubles, decimal integers) -- and
//     Registry::parse() inverts it, so `parse(dump_json()).dump_json()`
//     is byte-for-byte the input. Repro files (schema v3) and the bench
//     --json emitters rely on this, exactly like Trace::dump/parse.
//   * reset_values() zeroes every metric but never erases entries, so
//     cached `Counter&`/`Histogram&` handles (including function-local
//     statics in hot paths) stay valid across per-episode snapshots.
//   * Sinks are env-gated: when RBVC_METRICS_OUT=<path> is set, the global
//     registry is written there at process exit (and on demand via
//     export_global()); RBVC_METRICS=1 enables the gated derived metrics.
//
// Thread-safety: fully concurrent recording. Handle creation and
// serialization take a registry mutex; recording through a handle is
// lock-free -- counters add into per-thread shards (aggregated on
// snapshot), gauges are atomic stores, histogram buckets are atomic adds.
// The parallel episode executor (exec/parallel_executor.h) runs many
// engine instances against the one global registry, so RBVC_METRICS totals
// stay exact under RBVC_JOBS > 1. Snapshots taken while a pool is running
// are per-metric consistent, not cross-metric consistent; the property
// harness snapshots only from its single-threaded minimize path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rbvc/common.h"

namespace rbvc::obs {

/// Serialization schema version embedded in dump_json().
inline constexpr int kMetricsVersion = 1;

/// Monotonically increasing event count. Writes land in one of kShards
/// cache-line-sized slots chosen per thread (round-robin at first use), so
/// concurrent inc() from an episode pool never contends on one line;
/// value() aggregates the shards. Relaxed ordering: totals are exact once
/// the writers are quiesced (pool drained / joined), which is when the
/// harness and the exit sink read them.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t by = 1) {
    shards_[shard_index()].v.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  /// This thread's shard slot, assigned round-robin on first use.
  static std::size_t shard_index();
  std::array<Shard, kShards> shards_{};
};

/// Last-observed value (e.g. the most recent episode's achieved delta*).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are strictly increasing upper bounds;
/// bucket i counts observations v with v <= bounds[i] (and > bounds[i-1]);
/// one extra overflow bucket counts v > bounds.back(). Tracks the running
/// sum and total so means are recoverable. observe() is concurrent-safe
/// (atomic bucket/total adds, CAS-accumulated sum); counts() returns a
/// point-in-time snapshot.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(Histogram&& other) noexcept;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  Histogram& operator=(Histogram&&) = delete;

  void observe(double v);
  /// Adds a batch tallied by the caller: `counts` per bucket (overflow
  /// last, as counts() returns them) and the observations' sum. Hot sites
  /// that many threads share tally locally and publish once with this.
  void add(const std::vector<std::uint64_t>& counts, double sum);
  /// Index of the bucket `observe(v)` increments (exposed for tests).
  std::size_t bucket_of(double v) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> counts() const;  // snapshot, overflow last
  std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  friend class Registry;  // parse() restores counts_/total_/sum_ directly
  void add_to_sum(double v);
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket sets. Timers use seconds (1us .. 10s); count-shaped
/// histograms (queue depths, per-round message counts) use 1 .. 1e6.
const std::vector<double>& time_buckets();
const std::vector<double>& count_buckets();

/// A named collection of metrics. Metric names must be non-empty and use
/// only [A-Za-z0-9_.:/-] so the JSON serialization never needs escaping.
class Registry {
 public:
  Registry();
  // Movable (parse() returns by value) but not copyable; handles into a
  // moved-from registry are invalidated, as usual.
  Registry(Registry&& other) noexcept;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  Registry& operator=(Registry&&) = delete;

  /// Find-or-create. References stay valid for the registry's lifetime
  /// (reset_values() zeroes but never erases). A histogram's bounds are
  /// fixed by its first creation; later calls return the existing one.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds);

  /// Read-only lookups; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const;

  /// Stable JSON: sorted keys, %.17g doubles. parse() inverts it so
  /// parse(dump_json()).dump_json() is byte-identical.
  std::string dump_json() const;
  /// Inverse of dump_json(). Throws invalid_argument on malformed input
  /// or an unknown schema version.
  static Registry parse(const std::string& json);

  /// Zeroes every metric value, keeping entries (and handles) alive --
  /// the per-episode snapshot primitive used by the property harness.
  void reset_values();

  /// Zeroes only the wall-clock histograms (those with time_buckets()
  /// bounds). Timings are functions of the machine, not the episode, so
  /// snapshots that must be deterministic artifacts -- the repro-embedded
  /// one, which the RBVC_JOBS contract requires to be byte-identical across
  /// job counts and runs -- scrub them first.
  void reset_wallclock_values();

  /// Gate for *expensive derived* metrics only (cheap counters are always
  /// recorded). Defaults to true when RBVC_METRICS is a nonzero value or
  /// RBVC_METRICS_OUT is set.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide registry every instrumentation point records into.
/// First use arms the env-gated sink: if RBVC_METRICS_OUT is set, the
/// registry is exported there at process exit.
Registry& global();

/// RBVC_METRICS_OUT, or "" when unset.
std::string env_out_path();

/// Maps an arbitrary string (e.g. a wire-level message kind, possibly
/// forged by a Byzantine strategy) into the metric-name charset: invalid
/// characters become '_', empty input becomes "unknown".
std::string sanitize_label(const std::string& raw);

/// Writes global().dump_json() to RBVC_METRICS_OUT (or `path_override` when
/// non-empty). Returns the path written, or "" when no path was configured.
std::string export_global(const std::string& path_override = "");

/// RAII wall-clock timer: observes its elapsed seconds into a time-bucket
/// histogram on destruction. elapsed_seconds() is monotonically
/// non-decreasing and non-negative (steady clock).
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, const std::string& histogram_name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_seconds() const;

 private:
  Histogram& hist_;
  std::uint64_t start_ns_;
};

}  // namespace rbvc::obs
