// Shared pieces of the repository benchmark: run options, the result
// record printed as the final JSON line, registry snapshots (work counts and
// kernel timers the program already keeps), the in-memory span log of traced
// runs, and small statistics helpers. Workload code lives in cluster.cpp and
// sweep.cpp; README.md explains the metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t width = 0;  // sweep pool width (RBVC_JOBS); set by main()
  std::string out_dir = ".";  // span files, repro files of failed episodes
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// A declared metric: name and unit, as listed in BENCHMARK.json.
struct MetricDecl {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// in BENCHMARK.json order.
extern const std::vector<MetricDecl> kEndToEnd;
extern const std::vector<MetricDecl> kPerLayer;

/// One run's outcome: metric values by declared name, the correctness
/// tally, and human-readable lines (sample counts, layer splits) printed
/// before the JSON result.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  /// Per-thread CPU probe times taken inside the workload (between sweep
  /// calls); main() adds the ones it takes before and after.
  std::vector<double> probes;

  /// Sets a declared metric; throws on an undeclared name.
  void set(const std::string& name, double value);
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed correctness check, counted in `failed`.
  void fail(const std::string& why);
};

/// printf into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// " v0 v1 ..." with each value printed by `format`.
std::string join(const std::vector<double>& v, const char* format);

/// Safe ratio: 0 when the denominator is 0.
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Values of the registry entries the benchmark reads, taken at one instant.
/// Counters are exact once writers are quiescent; histograms contribute
/// their running sum (seconds for timers), observation count and bucket
/// counts (overflow last).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> sums;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, std::vector<std::uint64_t>> buckets;

  static Snapshot take();
};

/// b - a for one counter / histogram.
struct Delta {
  const Snapshot& a;
  const Snapshot& b;
  double counter(const std::string& name) const;
  double sum(const std::string& name) const;
  double count(const std::string& name) const;
  std::vector<double> buckets(const std::string& name) const;
};

enum class SpanKind : std::uint8_t {
  kClientPropose,
  kClientInstance,
  kNodeStep,
  kNetReceive,
  kNetSend,
  kCheckProperty,
  kEpisode,
  kGenerate,
  kOracle,
};

const char* span_name(SpanKind k);

/// In-memory span store of a traced run: a fixed array of slots claimed
/// with one atomic add, so any thread can record without locking. Spans
/// past the capacity are only counted. Written out once, after every
/// recording thread has been joined.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : slots_(capacity) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Claims a slot for a span starting now-ish; returns its index (the
  /// parent handle for child spans) or -1 when the log is full.
  std::int32_t open(SpanKind kind, std::int64_t start_ns, std::int64_t request,
                    std::int32_t parent);
  /// Completes an opened span. No-op for index -1.
  void close(std::int32_t idx, std::int64_t end_ns, std::int64_t request);
  void add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request, std::int32_t parent) {
    close(open(kind, start_ns, request, parent), end_ns, request);
  }

  std::size_t recorded() const;
  std::size_t dropped() const;
  /// One JSON object per line: name, start_ns, end_ns, parent, request,
  /// thread. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t request = -1;
    std::int32_t parent = -1;
    std::uint16_t thread = 0;
    SpanKind kind = SpanKind::kNodeStep;
  };
  std::vector<Span> slots_;
  std::atomic<std::size_t> next_{0};
};

/// CPU speed probe (speed.cpp): `threads` threads run a fixed
/// benchmark-owned dense LU kernel at once; returns each thread's wall time
/// in seconds.
std::vector<double> probe_seconds(std::size_t threads);

/// Probe time of the reference CPU state the end-to-end times are scaled to
/// (the 4-vCPU Xeon VM the benchmark was tuned on took 0.03-0.07 s per
/// thread).
inline constexpr double kReferenceProbeSeconds = 0.05;

// Workload entry points (cluster.cpp, sweep.cpp, regimes.cpp).
Report run_cluster(const Options& opt, bool tcp);
Report run_sweep(const Options& opt, bool linf);
/// Appends the hull.regime.* per-layer metrics: direct delta* calls on point
/// sets drawn (from the run's seed) to land in each regime.
void add_regime_metrics(const Options& opt, Report& rep);

}  // namespace perfbench
