#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

const std::vector<MetricDecl> kEndToEnd = {
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"setup_s", "s"},
    {"rss_peak_mb", "MiB"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"net.send_us", "us"},
    {"net.recv_wait_us", "us"},
    {"net.queue_depth_mean", "count"},
    {"net.frames_per_op", "frames/op"},
    {"net.bytes_per_op", "bytes/op"},
    {"net.codec_ns_per_frame", "ns"},
    {"net_node.step_self_us", "us"},
    {"net_node.busy_frac", "ratio"},
    {"net_node.start_delay_ms", "ms"},
    {"net_node.backlog_frac", "ratio"},
    {"net_node.dropped_frac", "ratio"},
    {"protocols.rbc_emits_per_op", "emits/op"},
    {"consensus.delta_star_calls_per_op", "calls/op"},
    {"hull.delta_star_share", "ratio"},
    {"hull.delta_star_us", "us"},
    {"hull.method.gamma_nonempty_per_op", "calls/op"},
    {"hull.method.simplex_inradius_per_op", "calls/op"},
    {"hull.method.numerical_per_op", "calls/op"},
    {"hull.bisect_iters_per_call", "iters/call"},
    {"hull.regime.gamma_nonempty.d2.p50_us", "us"},
    {"hull.regime.gamma_nonempty.d3.p50_us", "us"},
    {"hull.regime.simplex_inradius.d2.p50_us", "us"},
    {"hull.regime.simplex_inradius.d3.p50_us", "us"},
    {"hull.regime.numerical_l2.d2.p50_us", "us"},
    {"hull.regime.numerical_l2.d3.p50_us", "us"},
    {"hull.regime.bisection_linf.d2.p50_us", "us"},
    {"hull.regime.bisection_linf.d3.p50_us", "us"},
    {"opt.minimax_share", "ratio"},
    {"opt.minimax_evals_per_call", "evals/call"},
    {"lp.share", "ratio"},
    {"lp.pivots_per_op", "pivots/op"},
    {"lp.warm_dual_pivots_per_op", "pivots/op"},
    {"lp.warm_hit_rate", "ratio"},
    {"sim.messages_per_episode", "msgs/op"},
    {"harness.episode_ms_p50", "ms"},
    {"harness.oracle_share", "ratio"},
    {"exec.busy_frac", "ratio"},
    {"exec.steals_per_episode", "steals/op"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.uncovered_frac", "ratio"},
};

void Report::set(const std::string& name, double value) {
  const auto declared = [&name](const std::vector<MetricDecl>& table) {
    return std::any_of(table.begin(), table.end(),
                       [&name](const MetricDecl& d) { return name == d.name; });
  };
  if (!declared(kEndToEnd) && !declared(kPerLayer)) {
    throw std::logic_error("perfbench: undeclared metric " + name);
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("perfbench: non-finite value for " + name);
  }
  values[name] = value;
}

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (failed <= 10) notes.push_back("FAILED: " + why);
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::max(0.0, std::min(n - 1, std::ceil(q * n) - 1));
  return v[static_cast<std::size_t>(rank)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string join(const std::vector<double>& v, const char* format) {
  std::string out;
  for (const double x : v) {
    out += ' ';
    out += fmt(format, x);
  }
  return out;
}

namespace {

const char* const kCounters[] = {
    "protocols.rbc.emits",
    "geom.delta_star.calls",
    "geom.delta_star.method.gamma_nonempty",
    "geom.delta_star.method.simplex_inradius",
    "geom.delta_star.method.numerical",
    "geom.delta_star.bisect_iters",
    "opt.minimax.calls",
    "opt.minimax.evals",
    "lp.pivots",
    "lp.warm.dual_pivots",
    "lp.warm.hits",
    "lp.warm.attempts",
    "sim.async.messages_delivered",
    "exec.steals",
    "net.frames_sent",
    "net.bytes_sent",
};

const char* const kHistograms[] = {
    "geom.delta_star.seconds", "opt.minimax.seconds", "lp.seconds",
    "exec.worker_busy_seconds", "net.queue_depth",
};

thread_local std::uint16_t tl_thread_id = 0;
std::atomic<std::uint16_t> next_thread_id{0};

std::uint16_t thread_id() {
  if (tl_thread_id == 0) tl_thread_id = ++next_thread_id;
  return tl_thread_id;
}

}  // namespace

Snapshot Snapshot::take() {
  const rbvc::obs::Registry& reg = rbvc::obs::global();
  Snapshot s;
  for (const char* name : kCounters) {
    const rbvc::obs::Counter* c = reg.find_counter(name);
    s.counters[name] = c ? c->value() : 0;
  }
  for (const char* name : kHistograms) {
    const rbvc::obs::Histogram* h = reg.find_histogram(name);
    s.sums[name] = h ? h->sum() : 0.0;
    s.counts[name] = h ? h->total() : 0;
    s.buckets[name] = h ? h->counts() : std::vector<std::uint64_t>{};
  }
  return s;
}

double Delta::counter(const std::string& name) const {
  return static_cast<double>(b.counters.at(name) - a.counters.at(name));
}

double Delta::sum(const std::string& name) const {
  return b.sums.at(name) - a.sums.at(name);
}

double Delta::count(const std::string& name) const {
  return static_cast<double>(b.counts.at(name) - a.counts.at(name));
}

std::vector<double> Delta::buckets(const std::string& name) const {
  const std::vector<std::uint64_t>& x = a.buckets.at(name);
  const std::vector<std::uint64_t>& y = b.buckets.at(name);
  std::vector<double> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    out[i] = static_cast<double>(y[i] - (i < x.size() ? x[i] : 0));
  }
  return out;
}

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kClientPropose: return "client.propose";
    case SpanKind::kClientInstance: return "client.instance";
    case SpanKind::kNodeStep: return "net_node.step";
    case SpanKind::kNetReceive: return "net.receive";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kCheckProperty: return "harness.check_property";
    case SpanKind::kEpisode: return "harness.episode";
    case SpanKind::kGenerate: return "harness.generate";
    case SpanKind::kOracle: return "harness.oracle";
  }
  return "unknown";
}

std::int32_t SpanLog::open(SpanKind kind, std::int64_t start_ns,
                           std::int64_t request, std::int32_t parent) {
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= slots_.size()) return -1;
  Span& s = slots_[idx];
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  s.request = request;
  s.parent = parent;
  s.thread = thread_id();
  s.kind = kind;
  return static_cast<std::int32_t>(idx);
}

void SpanLog::close(std::int32_t idx, std::int64_t end_ns,
                    std::int64_t request) {
  if (idx < 0) return;
  Span& s = slots_[static_cast<std::size_t>(idx)];
  s.end_ns = end_ns;
  s.request = request;
}

std::size_t SpanLog::recorded() const {
  return std::min(next_.load(std::memory_order_relaxed), slots_.size());
}

std::size_t SpanLog::dropped() const {
  const std::size_t n = next_.load(std::memory_order_relaxed);
  return n > slots_.size() ? n - slots_.size() : 0;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = recorded();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = slots_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld,\"thread\":%u}\n",
                 span_name(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 static_cast<unsigned>(s.thread));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
