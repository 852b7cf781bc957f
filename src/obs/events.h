// Flight recorder + causal clock: the tracing layer beneath the metrics
// registry (obs/metrics.h). Where the registry answers "how many / how
// long" in aggregate, this layer answers "what happened, in what order,
// to which instance": every instrumentation point emits a small structured
// Event into a lock-free bounded ring, and a process-wide Lamport clock --
// stamped into Message::meta by the TCP transport send path and merged on
// receive -- makes per-node event logs mergeable into one happens-before-
// consistent timeline (tools/rbvc-trace does the join).
//
// Design points:
//   * Always on, bounded memory. Each writer thread owns a fixed-capacity
//     ring of Event slots (RBVC_TRACE_RING slots; default 1024, sized so
//     the ring's cache footprint stays inside L2); when it wraps, the
//     oldest events fall off. Rings are registered in a fixed
//     process-wide table and never freed, so events survive thread exit
//     and the exit/crash sinks can read them. At thread exit the ring goes
//     back on a free list and the next new writer thread continues it, so
//     the ring count tracks the most writers ever live at once, not every
//     thread the process ever started; the exited thread's events stay
//     readable until they are overwritten.
//   * Hot-path cost is a few stores, mirroring the Counter shard design:
//     one relaxed fetch_add on the ring cursor, one steady-clock read, and
//     eight relaxed atomic stores into the slot. No locks, no allocation
//     after a thread's first emit. set_enabled(false) reduces emit() to a
//     single load (bench_net_cluster --trace measures the delta).
//   * Torn-write safety without locks: every slot carries a seqlock-style
//     tag (its logical index + 1, 0 while a rewrite is in flight). Readers
//     check the tag before and after copying and skip mismatches, so a
//     snapshot taken while writers run is a consistent subset. All fields
//     are relaxed atomics, so concurrent emit/snapshot is TSan-clean.
//   * Byte-stable JSONL. dump_jsonl(parse_jsonl(text)) == text, the same
//     fixpoint contract as Registry::dump_json/parse; the process-level
//     dump_jsonl() sorts by (lamport, ts, node, ...) so two dumps of a
//     quiesced process are identical. RBVC_TRACE_OUT=<path> arms an
//     at-exit file sink, exactly like RBVC_METRICS_OUT.
//   * Determinism: events never feed back into scheduling, protocol state,
//     or repro files, so the sim ScheduleLog byte-identity and the
//     RBVC_JOBS repro contract hold with tracing enabled (pinned by
//     tests/events_test.cpp).
//
// The Lamport stamp lives at the TAIL of Message::meta as three ints
// [lo30, hi30, kLamportMetaTag]; stamp/strip are tag-checked, so an
// unstamped message (old sender, sim transport, loopback) simply passes
// through unchanged. SimTransport never stamps -- sim byte-identity.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rbvc/common.h"

namespace rbvc::obs::events {

/// What happened. Names (type_name) are part of the JSONL schema; append
/// new types at the end and never renumber. The `a`/`b` payload fields are
/// type-specific, documented per enumerator.
enum class Type : std::uint16_t {
  kNote = 0,             // freeform marker; a, b caller-defined
  kConnect,              // TCP link up;          a = peer id, b = 1 if dialed
  kHangup,               // TCP link down;        a = peer id
  kHandshakeTimeout,     // accept-side hello timed out; a = fd
  kFrameTx,              // framed send;          a = Lamport stamp, b = encode ns
  kFrameRx,              // framed receive;       a = sender's stamp (0 = none), b = decode ns
  kSendDrop,             // send to a dead peer;  a = peer id
  kSendTimeoutHangup,    // SO_SNDTIMEO hangup;   a = peer id
  kQueuePop,             // mailbox pop;          a = queue wait ns, b = depth after pop
  kInstanceStart,        // propose accepted;     a = client id
  kProtoStep,            // one protocol callback; a = total ns, b = LP-kernel ns
  kInstanceDecided,      // instance reported;    a = ok (1/0), b = start->decide ns
  kBacklog,              // pre-propose buffering; a = backlog depth
  kGc,                   // retired instances;    instance = new gc floor, a = live instances
  kRoundStart,           // sync driver round;    instance = round, a = inbox size
  kRoundBarrier,         // sync round complete;  instance = round, a = EOR markers seen
  kRoundTimeout,         // sync barrier timeout; instance = round, a = missing markers
  kEpisodeStart,         // harness episode;      instance = episode index
  kEpisodeEnd,           // harness episode done; instance = episode index, a = failed (1/0)
  kPropose,              // client-side propose;  a = dimension
  kDecision,             // client-side resolve;  a = ok (1/0), b = propose->resolve ns
  kVerifyReject,         // verify-by-recompute refused a value; a = sender,
                         //   b = consensus::VerifyReject reason
  kCount_,               // sentinel, keep last
};

/// Stable name for the JSONL `type` field ("frame_rx", "instance_start",
/// ...); "unknown" for out-of-range values.
const char* type_name(Type t);
/// Inverse of type_name; nullopt for unrecognized names.
std::optional<Type> type_from_name(const std::string& name);

/// One recorded event. POD snapshot form -- the in-ring representation is
/// all-atomic; this is what snapshot()/parse_jsonl() hand back.
struct Event {
  std::uint64_t ts_ns = 0;    // steady-clock ns at emit (per-process epoch)
  std::uint64_t lamport = 0;  // process Lamport clock at emit
  std::int32_t node = -1;     // cluster id (set_node), -1 = unset
  std::int32_t instance = -1; // consensus instance / round / episode, -1 = n/a
  Type type = Type::kNote;
  std::int64_t a = 0;         // type-specific (see Type)
  std::int64_t b = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Steady-clock nanoseconds (same clock as ScopedTimer).
std::uint64_t now_ns();

// -- Lamport clock -----------------------------------------------------------

/// Current clock value (no tick).
std::uint64_t lamport_now();
/// Send-side tick: ++clock, returns the new value (the stamp to send).
std::uint64_t lamport_tick();
/// Receive-side merge: clock = max(clock, received) + 1, returns the new
/// value. Monotone under any interleaving.
std::uint64_t lamport_merge(std::uint64_t received);

/// Meta tag marking the three trailing Lamport-stamp ints ("LAMP").
inline constexpr int kLamportMetaTag = 0x4C414D50;
/// Appends [lo30, hi30, kLamportMetaTag] to meta. Clocks are carried as two
/// non-negative 30-bit limbs (60 usable bits -- unreachable in practice).
void stamp_lamport(std::vector<int>& meta, std::uint64_t clock);
/// Removes and returns a trailing stamp; nullopt (meta untouched) when the
/// tail is not a stamp, so unstamped senders are fail-safe.
std::optional<std::uint64_t> strip_lamport(std::vector<int>& meta);

// -- Recording ---------------------------------------------------------------

/// This process's cluster id, stamped on subsequently emitted events
/// (rbvc-node / rbvc-client set it from --id). Process-wide; in-process
/// multi-node fleets (benches, tests) leave it unset and group by thread.
void set_node(std::int32_t id);
std::int32_t node();

/// Master switch, default on. Only bench_net_cluster --trace toggles it,
/// to measure the recorder's overhead; emit() with tracing off is a single
/// relaxed load.
bool enabled();
void set_enabled(bool on);

/// Records one event into the calling thread's ring (taken from the free
/// list or created on first use, capacity RBVC_TRACE_RING, default 1024
/// slots). Dropped when emitted from a thread-local destructor that runs
/// after the thread handed its ring back.
void emit(Type t, std::int32_t instance = -1, std::int64_t a = 0,
          std::int64_t b = 0);

/// Total events ever emitted process-wide (wrapped events included).
std::uint64_t emitted_total();

/// Rings registered so far (live and free). Public for tests.
std::size_t registered_rings();

/// One bounded single-owner event ring; the process-wide recorder keeps one
/// per writer thread. Public for tests -- production code uses emit().
/// emit() is safe from many threads (the cursor is a fetch_add), snapshots
/// are safe concurrent with writers (tag-checked copies).
class Ring {
 public:
  explicit Ring(std::size_t capacity);
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  void emit(const Event& e);
  /// Events still retained (oldest first), skipping slots mid-rewrite.
  void snapshot_into(std::vector<Event>& out) const;
  /// Newest `last_n` retained events to stderr, async-signal-safe only
  /// (write(2), manual formatting) -- the crash-dump hook's workhorse.
  void crash_dump(std::size_t last_n) const;
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t emitted() const {
    return next_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    // tag == logical index + 1 once published, 0 while a rewrite is in
    // flight; logical indices grow without bound so a tag can never repeat
    // for a slot (no ABA). All fields atomic => concurrent snapshot is
    // race-free; the tag re-check discards torn copies.
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> lamport{0};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
    std::atomic<std::int32_t> node{-1};
    std::atomic<std::int32_t> instance{-1};
    std::atomic<std::uint16_t> type{0};
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};  // logical index of the next event
};

// -- Snapshots & serialization ----------------------------------------------

/// Every retained event across all rings, sorted by (lamport, ts, node,
/// type, instance, a, b) -- a deterministic order once writers quiesce.
std::vector<Event> snapshot();

/// One JSON object per line, fixed key order:
///   {"ts":..,"lc":..,"node":..,"inst":..,"type":"frame_rx","a":..,"b":..}
/// Serializes `events` in the given order; parse_jsonl is the exact
/// inverse, so dump_jsonl(parse_jsonl(text)) == text byte-for-byte.
std::string dump_jsonl(const std::vector<Event>& events);
/// dump_jsonl(snapshot()).
std::string dump_jsonl();
/// Inverse of dump_jsonl; throws invalid_argument naming the defect on
/// malformed input. Blank lines are rejected, not skipped.
std::vector<Event> parse_jsonl(const std::string& text);

/// RBVC_TRACE_OUT, or "" when unset.
std::string env_trace_out();
/// Writes dump_jsonl() to RBVC_TRACE_OUT (or `path_override` when
/// non-empty). Returns the path written, "" when none configured.
std::string export_trace(const std::string& path_override = "");

/// Installs SIGSEGV/SIGBUS/SIGABRT/SIGFPE handlers that write the newest
/// `last_n` events per ring to stderr (async-signal-safe: write(2) and
/// manual formatting only) before re-raising the default disposition.
/// last_n is clamped to 256.
void install_crash_dump(std::size_t last_n = 64);

}  // namespace rbvc::obs::events
