#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace rbvc::obs {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '/' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string fmt_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string fmt_double_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += fmt_double(xs[i]);
  }
  out += "]";
  return out;
}

std::string fmt_u64_array(const std::vector<std::uint64_t>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(xs[i]);
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------------------------
// Minimal parser for the exact JSON dialect dump_json() emits: object keys
// are [A-Za-z0-9_.:/-] strings (no escapes), values are integers, %.17g
// doubles, arrays of those, or the fixed histogram object. Whitespace is
// free-form so hand-edited files still load.
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    RBVC_REQUIRE(pos_ < text_.size(), "metrics parse: unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    RBVC_REQUIRE(peek() == c, std::string("metrics parse: expected `") + c +
                                  "` got `" + text_[pos_] + "`");
    ++pos_;
  }

  void expect_key(const std::string& key) {
    const std::string got = parse_string();
    RBVC_REQUIRE(got == key, "metrics parse: expected key `" + key +
                                 "`, got `" + got + "`");
    expect(':');
  }

  std::string parse_string() {
    expect('"');
    const std::size_t end = text_.find('"', pos_);
    RBVC_REQUIRE(end != std::string::npos,
                 "metrics parse: unterminated string");
    const std::string s = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return s;
  }

  std::string number_token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool num = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                       c == '.' || c == 'e' || c == 'E';
      if (!num) break;
      ++pos_;
    }
    RBVC_REQUIRE(pos_ > start, "metrics parse: expected a number");
    return text_.substr(start, pos_ - start);
  }

  std::uint64_t parse_u64() {
    const std::string tok = number_token();
    for (char c : tok) {
      RBVC_REQUIRE(c >= '0' && c <= '9',
                   "metrics parse: expected a non-negative integer, got `" +
                       tok + "`");
    }
    return std::strtoull(tok.c_str(), nullptr, 10);
  }

  double parse_double() {
    const std::string tok = number_token();
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    RBVC_REQUIRE(end && *end == '\0',
                 "metrics parse: malformed number `" + tok + "`");
    return v;
  }

  template <class ElemFn>
  void parse_array(const ElemFn& elem) {
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      elem();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  /// Iterates `entry(name)` over a {...} object's members.
  template <class EntryFn>
  void parse_object(const EntryFn& entry) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string name = parse_string();
      expect(':');
      entry(name);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void expect_end() {
    skip_ws();
    RBVC_REQUIRE(pos_ == text_.size(),
                 "metrics parse: trailing garbage after the document");
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Counter.
// ---------------------------------------------------------------------------

std::size_t Counter::shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1)  // value-initialized atomics (zero)
{
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    RBVC_REQUIRE(bounds_[i] < bounds_[i + 1],
                 "Histogram: bounds must be strictly increasing");
  }
}

Histogram::Histogram(Histogram&& other) noexcept
    : bounds_(std::move(other.bounds_)),
      counts_(std::move(other.counts_)),
      total_(other.total_.load(std::memory_order_relaxed)),
      sum_(other.sum_.load(std::memory_order_relaxed)) {}

std::size_t Histogram::bucket_of(double v) const {
  // First bound >= v; past-the-end means the overflow bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::observe(double v) {
  counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  add_to_sum(v);
}

void Histogram::add(const std::vector<std::uint64_t>& counts, double sum) {
  RBVC_REQUIRE(counts.size() == counts_.size(),
               "Histogram::add: one count per bucket, overflow last");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    total += counts[i];
  }
  total_.fetch_add(total, std::memory_order_relaxed);
  add_to_sum(sum);
}

void Histogram::add_to_sum(double v) {
  // CAS accumulation instead of atomic<double>::fetch_add for toolchain
  // portability. Every thread that observes one histogram contends here,
  // so a site hit from many threads at a high rate tallies locally and
  // publishes with add() (sim.async.queue_depth does, once per run).
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (std::atomic<std::uint64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& time_buckets() {
  static const std::vector<double> b = {1e-6, 1e-5, 1e-4, 1e-3,
                                        1e-2, 0.1,  1.0,  10.0};
  return b;
}

const std::vector<double>& count_buckets() {
  static const std::vector<double> b = {1,   2,    5,    10,     20,     50,
                                        100, 200,  500,  1000,   10000,
                                        100000, 1000000};
  return b;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Registry::Registry() {
  const char* on = std::getenv("RBVC_METRICS");
  enabled_.store(
      (on && *on && std::string(on) != "0") || !env_out_path().empty(),
      std::memory_order_relaxed);
}

Registry::Registry(Registry&& other) noexcept
    : enabled_(other.enabled_.load(std::memory_order_relaxed)),
      counters_(std::move(other.counters_)),
      gauges_(std::move(other.gauges_)),
      histograms_(std::move(other.histograms_)) {}

Counter& Registry::counter(const std::string& name) {
  RBVC_REQUIRE(valid_name(name), "metrics: bad counter name `" + name + "`");
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  RBVC_REQUIRE(valid_name(name), "metrics: bad gauge name `" + name + "`");
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  RBVC_REQUIRE(valid_name(name),
               "metrics: bad histogram name `" + name + "`");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bounds)).first;
  }
  return it->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

void Registry::reset_wallclock_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, h] : histograms_) {
    if (h.bounds() == time_buckets()) h.reset();
  }
}

std::string Registry::dump_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n";
  out += "  \"version\": " + std::to_string(kMetricsVersion) + ",\n";

  auto section = [&out](const char* title, auto& map, auto&& value,
                        bool last) {
    out += std::string("  \"") + title + "\": {";
    if (!map.empty()) {
      out += "\n";
      std::size_t i = 0;
      for (const auto& [name, metric] : map) {
        out += "    \"" + name + "\": " + value(metric);
        out += ++i < map.size() ? ",\n" : "\n";
      }
      out += "  ";
    }
    out += last ? "}\n" : "},\n";
  };

  section("counters", counters_,
          [](const Counter& c) { return std::to_string(c.value()); }, false);
  section("gauges", gauges_,
          [](const Gauge& g) { return fmt_double(g.value()); }, false);
  section("histograms", histograms_,
          [](const Histogram& h) {
            return "{\"bounds\": " + fmt_double_array(h.bounds()) +
                   ", \"counts\": " + fmt_u64_array(h.counts()) +
                   ", \"sum\": " + fmt_double(h.sum()) + "}";
          },
          true);
  out += "}\n";
  return out;
}

Registry Registry::parse(const std::string& json) {
  Registry reg;
  reg.enabled_.store(false, std::memory_order_relaxed);  // data, not a gate
  Parser p(json);
  p.expect('{');
  p.expect_key("version");
  const std::uint64_t version = p.parse_u64();
  RBVC_REQUIRE(version == static_cast<std::uint64_t>(kMetricsVersion),
               "metrics parse: unknown version " + std::to_string(version) +
                   " (this build reads v" + std::to_string(kMetricsVersion) +
                   ")");
  p.expect(',');
  p.expect_key("counters");
  p.parse_object([&](const std::string& name) {
    RBVC_REQUIRE(valid_name(name), "metrics parse: bad name `" + name + "`");
    reg.counters_[name].inc(p.parse_u64());
  });
  p.expect(',');
  p.expect_key("gauges");
  p.parse_object([&](const std::string& name) {
    RBVC_REQUIRE(valid_name(name), "metrics parse: bad name `" + name + "`");
    reg.gauges_[name].set(p.parse_double());
  });
  p.expect(',');
  p.expect_key("histograms");
  p.parse_object([&](const std::string& name) {
    RBVC_REQUIRE(valid_name(name), "metrics parse: bad name `" + name + "`");
    p.expect('{');
    p.expect_key("bounds");
    std::vector<double> bounds;
    p.parse_array([&] { bounds.push_back(p.parse_double()); });
    p.expect(',');
    p.expect_key("counts");
    std::vector<std::uint64_t> counts;
    p.parse_array([&] { counts.push_back(p.parse_u64()); });
    p.expect(',');
    p.expect_key("sum");
    const double sum = p.parse_double();
    p.expect('}');
    Histogram h(bounds);  // validates monotone bounds
    RBVC_REQUIRE(counts.size() == bounds.size() + 1,
                 "metrics parse: histogram `" + name + "` needs " +
                     std::to_string(bounds.size() + 1) + " counts");
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      h.counts_[i].store(counts[i], std::memory_order_relaxed);
      total += counts[i];
    }
    h.total_.store(total, std::memory_order_relaxed);
    h.sum_.store(sum, std::memory_order_relaxed);
    reg.histograms_.emplace(name, std::move(h));
  });
  p.expect('}');
  p.expect_end();
  return reg;
}

// ---------------------------------------------------------------------------
// Global registry + env-gated sink.
// ---------------------------------------------------------------------------

std::string env_out_path() {
  const char* path = std::getenv("RBVC_METRICS_OUT");
  return path ? std::string(path) : std::string();
}

std::string sanitize_label(const std::string& raw) {
  if (raw.empty()) return "unknown";
  std::string out = raw;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '/' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::string export_global(const std::string& path_override) {
  const std::string path =
      path_override.empty() ? env_out_path() : path_override;
  if (path.empty()) return "";
  std::ofstream out(path, std::ios::trunc);
  RBVC_REQUIRE(out.good(), "metrics export: cannot open " + path);
  out << global().dump_json();
  RBVC_REQUIRE(out.good(), "metrics export: write failed for " + path);
  return path;
}

Registry& global() {
  static Registry* reg = [] {
    static Registry r;
    if (!env_out_path().empty()) {
      // Registered after `r`'s construction, so this runs before its
      // destructor: every binary exports automatically when the env asks.
      std::atexit([] { export_global(); });
    }
    return &r;
  }();
  return *reg;
}

// ---------------------------------------------------------------------------
// Declared metrics.
// ---------------------------------------------------------------------------

void* detail::resolve(std::uint16_t row) {
  const Declared& d = kDeclared[row];
  Registry& reg = global();
  void* p = nullptr;
  switch (d.kind) {
    case Kind::kCounter:
      p = &reg.counter(d.name);
      break;
    case Kind::kGauge:
      p = &reg.gauge(d.name);
      break;
    case Kind::kCountHistogram:
      p = &reg.histogram(d.name, count_buckets());
      break;
    case Kind::kTimeHistogram:
      p = &reg.histogram(d.name, time_buckets());
      break;
  }
  // Threads racing here all found the same entry, so they store the same
  // pointer.
  held[row].store(p, std::memory_order_release);
  return p;
}

Counter& counter(OpenFamily f, const std::string& label) {
  return global().counter(f.prefix + sanitize_label(label));
}

// ---------------------------------------------------------------------------
// ScopedTimer.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ScopedTimer::ScopedTimer(Histogram& hist, std::uint64_t* total_ns)
    : hist_(hist), total_ns_(total_ns), start_ns_(now_ns()) {}

std::uint64_t ScopedTimer::elapsed_ns() const {
  const std::uint64_t now = now_ns();
  return now <= start_ns_ ? 0 : now - start_ns_;
}

double ScopedTimer::elapsed_seconds() const {
  return static_cast<double>(elapsed_ns()) * 1e-9;
}

ScopedTimer::~ScopedTimer() {
  const std::uint64_t ns = elapsed_ns();
  hist_.observe(static_cast<double>(ns) * 1e-9);
  if (total_ns_ != nullptr) *total_ns_ += ns;
}

}  // namespace rbvc::obs
