#include "obs/events.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <tuple>
#include <utility>

namespace rbvc::obs::events {

namespace {

// One name per Type enumerator, in declaration order. The JSONL schema
// leans on these strings, so they are append-only.
constexpr const char* kTypeNames[] = {
    "note",
    "connect",
    "hangup",
    "handshake_timeout",
    "frame_tx",
    "frame_rx",
    "send_drop",
    "send_timeout_hangup",
    "queue_pop",
    "instance_start",
    "proto_step",
    "instance_decided",
    "backlog",
    "gc",
    "round_start",
    "round_barrier",
    "round_timeout",
    "episode_start",
    "episode_end",
    "propose",
    "decision",
    "verify_reject",
};
static_assert(sizeof(kTypeNames) / sizeof(kTypeNames[0]) ==
                  static_cast<std::size_t>(Type::kCount_),
              "kTypeNames must cover every Type enumerator");

std::atomic<std::uint64_t> g_lamport{0};
std::atomic<std::int32_t> g_node{-1};
std::atomic<bool> g_enabled{true};

// The ring table is fixed-size, lock-free, and constant-initialized so the
// crash handler can walk it without taking locks or racing registration.
// Rings are heap-allocated once and never freed (still reachable from this
// table, so LeakSanitizer does not flag them): events must outlive their
// writer thread for the exit and crash sinks.
constexpr std::size_t kMaxRings = 256;
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};
std::atomic<std::size_t> g_crash_last_n{0};

// Rings whose writer thread exited. A new writer takes one of these before
// registering a ring, so a process that keeps starting short-lived threads
// (a fresh executor per property check) holds as many rings as it ever had
// live writers, not one per thread it ever ran. The list is never
// destroyed, so a thread that exits during static destruction can still
// hand its ring back.
std::mutex g_free_mu;
std::vector<Ring*>& free_rings() {  // guarded by g_free_mu
  static auto* rings = new std::vector<Ring*>();
  return *rings;
}

// The calling thread's ring: null before its first emit, and null again
// once the thread-exit hook below has handed the ring back. Both are
// trivially destructible, so they stay readable from emits in thread-local
// destructors that run after the hook.
thread_local Ring* t_ring = nullptr;
thread_local bool t_ring_returned = false;

std::size_t ring_capacity_from_env() {
  static const std::size_t cap = [] {
    const char* v = std::getenv("RBVC_TRACE_RING");
    if (v && *v) {
      const long n = std::strtol(v, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    // Default sized so a thread's ring cycles within L2: larger rings
    // stream more cache lines through the hot path and the recorder's
    // measured overhead climbs past the <5% budget (bench_net_cluster
    // --trace). Long-history captures raise RBVC_TRACE_RING explicitly
    // (net_smoke.sh uses 65536).
    return static_cast<std::size_t>(1024);
  }();
  return cap;
}

void arm_exit_sink();

// A fresh ring in the next table slot, or null when the table is full.
Ring* register_ring() {
  arm_exit_sink();
  const std::size_t slot =
      g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRings) {
    g_ring_count.store(kMaxRings, std::memory_order_relaxed);
    return nullptr;
  }
  Ring* ring = new Ring(ring_capacity_from_env());
  g_rings[slot].store(ring, std::memory_order_release);
  return ring;
}

// Runs at thread exit and puts the thread's ring on the free list. The
// cursor carries on under the next writer, so the exited thread's events
// stay readable until the ring wraps over them.
struct RingReturn {
  RingReturn() = default;
  RingReturn(const RingReturn&) = delete;
  RingReturn& operator=(const RingReturn&) = delete;
  ~RingReturn() {
    Ring* ring = std::exchange(t_ring, nullptr);
    t_ring_returned = true;
    const std::lock_guard<std::mutex> lock(g_free_mu);
    free_rings().push_back(ring);
  }
};

Ring* acquire_ring() {
  {
    const std::lock_guard<std::mutex> lock(g_free_mu);
    std::vector<Ring*>& free = free_rings();
    if (!free.empty()) {
      Ring* ring = free.back();
      free.pop_back();
      return ring;
    }
  }
  return register_ring();
}

// The calling thread's ring, or null when the thread already handed it back
// (an emit from a thread-local destructor that runs after RingReturn's):
// such events are dropped rather than written into a ring another thread
// may now own.
Ring* thread_ring() {
  if (t_ring != nullptr) return t_ring;
  if (t_ring_returned) return nullptr;
  t_ring = acquire_ring();
  if (t_ring != nullptr) {
    thread_local RingReturn give_back;
  } else {
    // Table full with every ring live (a pathological thread count): share
    // the last ring, which the fetch_add cursor makes multi-writer safe.
    // A sharer never hands it back.
    t_ring = g_rings[kMaxRings - 1].load(std::memory_order_acquire);
  }
  return t_ring;
}

/// Arms the RBVC_TRACE_OUT at-exit sink once, mirroring obs::global().
void arm_exit_sink() {
  static const bool armed = [] {
    if (!env_trace_out().empty()) {
      std::atexit([] { export_trace(); });
    }
    return true;
  }();
  (void)armed;
}

// -- async-signal-safe formatting for the crash handler ----------------------

void sig_puts(const char* s) {
  const ssize_t ignored = ::write(2, s, std::strlen(s));
  (void)ignored;
}

void sig_put_u64(std::uint64_t v) {
  char buf[24];
  char* p = buf + sizeof(buf);
  *--p = '\0';
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  sig_puts(p);
}

void sig_put_i64(std::int64_t v) {
  if (v < 0) {
    sig_puts("-");
    // -INT64_MIN overflows; negate as unsigned.
    sig_put_u64(~static_cast<std::uint64_t>(v) + 1);
  } else {
    sig_put_u64(static_cast<std::uint64_t>(v));
  }
}

void crash_dump_handler(int signo) {
  const std::size_t last_n = g_crash_last_n.load(std::memory_order_relaxed);
  sig_puts("\n== rbvc flight recorder (signal ");
  sig_put_i64(signo);
  sig_puts(") ==\n");
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t ri = 0; ri < rings; ++ri) {
    Ring* ring = g_rings[ri].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    sig_puts("-- ring ");
    sig_put_u64(ri);
    sig_puts(" (newest last) --\n");
    // Ring::snapshot_into allocates; walk the slots by logical index via
    // the public surface instead: re-derive the window and copy through
    // the same tag-checked protocol, entirely on the stack.
    ring->crash_dump(last_n);
  }
  // Restore default disposition and re-raise so the process still dies
  // with the original signal (core dumps, CI failure status).
  std::signal(signo, SIG_DFL);
  ::raise(signo);
}

// JSONL serialization helpers. Key order and spacing are part of the
// byte-stability contract -- change nothing here without versioning.

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void append_i64(std::string& out, std::int64_t v) { out += std::to_string(v); }

void append_event(std::string& out, const Event& e) {
  out += "{\"ts\":";
  append_u64(out, e.ts_ns);
  out += ",\"lc\":";
  append_u64(out, e.lamport);
  out += ",\"node\":";
  append_i64(out, e.node);
  out += ",\"inst\":";
  append_i64(out, e.instance);
  out += ",\"type\":\"";
  out += type_name(e.type);
  out += "\",\"a\":";
  append_i64(out, e.a);
  out += ",\"b\":";
  append_i64(out, e.b);
  out += "}\n";
}

/// Strict scanner over one JSONL line; the grammar is exactly what
/// append_event writes (no whitespace, fixed key order).
class LineParser {
 public:
  LineParser(const std::string& text, std::size_t begin, std::size_t end,
             std::size_t line_no)
      : text_(text), pos_(begin), end_(end), line_no_(line_no) {}

  Event parse() {
    Event e;
    expect("{\"ts\":");
    e.ts_ns = u64();
    expect(",\"lc\":");
    e.lamport = u64();
    expect(",\"node\":");
    e.node = i32();
    expect(",\"inst\":");
    e.instance = i32();
    expect(",\"type\":\"");
    const std::string name = until('"');
    const auto t = type_from_name(name);
    require(t.has_value(), "unknown event type `" + name + "`");
    e.type = *t;
    expect("\",\"a\":");
    e.a = i64();
    expect(",\"b\":");
    e.b = i64();
    expect("}");
    require(pos_ == end_, "trailing garbage");
    return e;
  }

 private:
  void require(bool ok, const std::string& what) {
    if (!ok) {
      throw invalid_argument("events parse: line " +
                             std::to_string(line_no_) + ": " + what);
    }
  }
  void expect(const char* lit) {
    const std::size_t n = std::strlen(lit);
    require(pos_ + n <= end_ && text_.compare(pos_, n, lit) == 0,
            std::string("expected `") + lit + "`");
    pos_ += n;
  }
  std::string until(char stop) {
    const std::size_t at = text_.find(stop, pos_);
    require(at != std::string::npos && at < end_, "unterminated string");
    std::string s = text_.substr(pos_, at - pos_);
    pos_ = at;
    return s;
  }
  std::uint64_t u64() {
    const std::size_t start = pos_;
    while (pos_ < end_ && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    require(pos_ > start, "expected an unsigned integer");
    return std::strtoull(text_.c_str() + start, nullptr, 10);
  }
  std::int64_t i64() {
    const std::size_t start = pos_;
    if (pos_ < end_ && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < end_ && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    require(pos_ > digits, "expected an integer");
    return std::strtoll(text_.c_str() + start, nullptr, 10);
  }
  std::int32_t i32() {
    const std::int64_t v = i64();
    require(v >= INT32_MIN && v <= INT32_MAX, "value out of int32 range");
    return static_cast<std::int32_t>(v);
  }

  const std::string& text_;
  std::size_t pos_;
  std::size_t end_;
  std::size_t line_no_;
};

}  // namespace

const char* type_name(Type t) {
  const auto i = static_cast<std::size_t>(t);
  if (i >= static_cast<std::size_t>(Type::kCount_)) return "unknown";
  return kTypeNames[i];
}

std::optional<Type> type_from_name(const std::string& name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Type::kCount_); ++i) {
    if (name == kTypeNames[i]) return static_cast<Type>(i);
  }
  return std::nullopt;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -- Lamport clock -----------------------------------------------------------

std::uint64_t lamport_now() {
  return g_lamport.load(std::memory_order_relaxed);
}

std::uint64_t lamport_tick() {
  return g_lamport.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t lamport_merge(std::uint64_t received) {
  std::uint64_t cur = g_lamport.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = std::max(cur, received) + 1;
  } while (!g_lamport.compare_exchange_weak(cur, next,
                                            std::memory_order_relaxed));
  return next;
}

void stamp_lamport(std::vector<int>& meta, std::uint64_t clock) {
  meta.push_back(static_cast<int>(clock & 0x3FFFFFFFu));
  meta.push_back(static_cast<int>((clock >> 30) & 0x3FFFFFFFu));
  meta.push_back(kLamportMetaTag);
}

std::optional<std::uint64_t> strip_lamport(std::vector<int>& meta) {
  const std::size_t n = meta.size();
  if (n < 3 || meta[n - 1] != kLamportMetaTag) return std::nullopt;
  const int lo = meta[n - 3];
  const int hi = meta[n - 2];
  // A forged tail with out-of-range limbs is not a stamp; leave it for the
  // protocol layer to reject like any other junk meta.
  if (lo < 0 || hi < 0 || lo > 0x3FFFFFFF || hi > 0x3FFFFFFF) {
    return std::nullopt;
  }
  meta.resize(n - 3);
  return (static_cast<std::uint64_t>(hi) << 30) |
         static_cast<std::uint64_t>(lo);
}

// -- Recording ---------------------------------------------------------------

void set_node(std::int32_t id) {
  g_node.store(id, std::memory_order_relaxed);
}

std::int32_t node() { return g_node.load(std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void emit(Type t, std::int32_t instance, std::int64_t a, std::int64_t b) {
  if (!enabled()) return;
  Event e;
  e.ts_ns = now_ns();
  e.lamport = lamport_now();
  e.node = node();
  e.instance = instance;
  e.type = t;
  e.a = a;
  e.b = b;
  if (Ring* ring = thread_ring()) ring->emit(e);
}

std::size_t registered_rings() {
  return std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
}

std::uint64_t emitted_total() {
  std::uint64_t total = 0;
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t i = 0; i < rings; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      total += r->emitted();
    }
  }
  return total;
}

// -- Ring --------------------------------------------------------------------

Ring::Ring(std::size_t capacity) : slots_(capacity ? capacity : 1) {}

void Ring::emit(const Event& e) {
  const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[idx % slots_.size()];
  // Seqlock publish: tag 0 while fields are inconsistent, idx+1 once done.
  // Tags for one slot only ever grow (idx advances by capacity per lap),
  // so a reader can never confuse two generations of the slot.
  s.tag.store(0, std::memory_order_release);
  s.ts_ns.store(e.ts_ns, std::memory_order_relaxed);
  s.lamport.store(e.lamport, std::memory_order_relaxed);
  s.a.store(e.a, std::memory_order_relaxed);
  s.b.store(e.b, std::memory_order_relaxed);
  s.node.store(e.node, std::memory_order_relaxed);
  s.instance.store(e.instance, std::memory_order_relaxed);
  s.type.store(static_cast<std::uint16_t>(e.type), std::memory_order_relaxed);
  s.tag.store(idx + 1, std::memory_order_release);
}

void Ring::snapshot_into(std::vector<Event>& out) const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = end > cap ? end - cap : 0;
  for (std::uint64_t idx = begin; idx < end; ++idx) {
    const Slot& s = slots_[idx % cap];
    if (s.tag.load(std::memory_order_acquire) != idx + 1) continue;
    Event e;
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    e.lamport = s.lamport.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    e.node = s.node.load(std::memory_order_relaxed);
    e.instance = s.instance.load(std::memory_order_relaxed);
    const std::uint16_t raw = s.type.load(std::memory_order_relaxed);
    e.type = raw < static_cast<std::uint16_t>(Type::kCount_)
                 ? static_cast<Type>(raw)
                 : Type::kNote;
    // A writer racing past us cleared the tag (or already republished a
    // later index); either way the copy may be torn -- drop it.
    if (s.tag.load(std::memory_order_acquire) != idx + 1) continue;
    out.push_back(e);
  }
}

void Ring::crash_dump(std::size_t last_n) const {
  last_n = std::min<std::size_t>(last_n ? last_n : 64, 256);
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  std::uint64_t begin = end > cap ? end - cap : 0;
  if (end - begin > last_n) begin = end - last_n;
  for (std::uint64_t idx = begin; idx < end; ++idx) {
    const Slot& s = slots_[idx % cap];
    if (s.tag.load(std::memory_order_acquire) != idx + 1) continue;
    sig_puts("ts=");
    sig_put_u64(s.ts_ns.load(std::memory_order_relaxed));
    sig_puts(" lc=");
    sig_put_u64(s.lamport.load(std::memory_order_relaxed));
    sig_puts(" node=");
    sig_put_i64(s.node.load(std::memory_order_relaxed));
    sig_puts(" inst=");
    sig_put_i64(s.instance.load(std::memory_order_relaxed));
    sig_puts(" type=");
    sig_puts(type_name(static_cast<Type>(
        s.type.load(std::memory_order_relaxed))));
    sig_puts(" a=");
    sig_put_i64(s.a.load(std::memory_order_relaxed));
    sig_puts(" b=");
    sig_put_i64(s.b.load(std::memory_order_relaxed));
    sig_puts("\n");
  }
}

// -- Snapshots & serialization ----------------------------------------------

std::vector<Event> snapshot() {
  std::vector<Event> out;
  const std::size_t rings =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t i = 0; i < rings; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      r->snapshot_into(out);
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    return std::tie(x.lamport, x.ts_ns, x.node, x.type, x.instance, x.a,
                    x.b) <
           std::tie(y.lamport, y.ts_ns, y.node, y.type, y.instance, y.a, y.b);
  });
  return out;
}

std::string dump_jsonl(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const Event& e : events) append_event(out, e);
  return out;
}

std::string dump_jsonl() { return dump_jsonl(snapshot()); }

std::vector<Event> parse_jsonl(const std::string& text) {
  std::vector<Event> out;
  std::size_t pos = 0;
  std::size_t line_no = 1;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    out.push_back(LineParser(text, pos, eol, line_no).parse());
    pos = eol + 1;
    ++line_no;
  }
  return out;
}

std::string env_trace_out() {
  const char* path = std::getenv("RBVC_TRACE_OUT");
  return path ? std::string(path) : std::string();
}

std::string export_trace(const std::string& path_override) {
  const std::string path =
      path_override.empty() ? env_trace_out() : path_override;
  if (path.empty()) return "";
  std::ofstream out(path, std::ios::trunc);
  RBVC_REQUIRE(out.good(), "events export: cannot open " + path);
  out << dump_jsonl();
  RBVC_REQUIRE(out.good(), "events export: write failed for " + path);
  return path;
}

void install_crash_dump(std::size_t last_n) {
  g_crash_last_n.store(std::min<std::size_t>(last_n ? last_n : 64, 256),
                       std::memory_order_relaxed);
  for (const int signo : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE}) {
    std::signal(signo, crash_dump_handler);
  }
}

}  // namespace rbvc::obs::events
