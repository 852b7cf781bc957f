// rbvc-trace: joins per-node flight-recorder logs (obs/events.h JSONL, as
// written by RBVC_TRACE_OUT / --trace-out / the admin `trace` command) into
// one causally ordered timeline, verifies the Lamport-clock ordering, and
// attributes per-instance latency across the pipeline stages. See
// docs/OBSERVABILITY.md.
//
//   rbvc-trace [--out merged.jsonl] [--perfetto trace.json]
//              [--require-decided N] node0.jsonl node1.jsonl ...
//
// The merged order is (lamport, ts, node, ...): every framed receive sorts
// after its send because the receiver merged the sender's stamp before
// recording anything. The causal check enforces exactly that invariant --
// each frame_rx event carrying a sender stamp (a > 0) must have
// lamport > a -- and any violation fails the run (exit 1), which is what
// the CI smoke asserts over a real 4-node cluster.
//
// The attribution table splits where decided instances spent their time:
//   rx-queue   mailbox wait, push -> pop        (queue_pop.a)
//   codec      frame encode + decode            (frame_tx.b + frame_rx.b)
//   lp/geom    LP-kernel time inside callbacks  (proto_step.b)
//   protocol   callback time minus the LP share (proto_step.a - proto_step.b)
// plus the end-to-end lines: node decide latency (instance_decided.b) and
// client propose -> quorum latency (decision.b). Stage times are sums of
// per-node wall time and overlap across nodes, so they explain where time
// went, not wall-clock elapsed. proto_step.b is the LP time of the
// callback's own thread, so it stays exact when several nodes share one
// process.
//
// It also counts verify_reject events -- values verify-by-recompute
// refused -- by sender, the live signal of a peer sending forged or
// malformed values.
//
// --perfetto writes Chrome trace-event JSON (load in ui.perfetto.dev or
// chrome://tracing): one pid per node, proto steps as complete events, the
// rest as instants. Steady-clock epochs differ per process, so cross-node
// alignment is indicative only; the Lamport order is the ground truth.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.h"

namespace {

using rbvc::obs::events::Event;
using rbvc::obs::events::Type;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out merged.jsonl] [--perfetto trace.json]\n"
               "          [--require-decided N] log.jsonl [log.jsonl ...]\n",
               argv0);
  std::exit(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rbvc-trace: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The same order snapshot() uses; receives sort after their sends.
bool causal_less(const Event& x, const Event& y) {
  return std::tie(x.lamport, x.ts_ns, x.node, x.type, x.instance, x.a, x.b) <
         std::tie(y.lamport, y.ts_ns, y.node, y.type, y.instance, y.a, y.b);
}

double ms(double ns) { return ns / 1e6; }

struct Attribution {
  double rx_queue_ns = 0;
  double codec_ns = 0;
  double lp_ns = 0;
  double proto_ns = 0;  // callback time net of the LP share
  double decide_ns_sum = 0;  // per-node instance_decided latencies
  std::size_t decide_reports = 0;
  double client_ns_sum = 0;  // client propose -> quorum latencies
  std::size_t client_decisions = 0;
  std::map<std::int64_t, std::size_t> rejects_by_sender;  // verify_reject.a
  std::size_t rejects = 0;
};

void write_perfetto(const std::string& path, const std::vector<Event>& evs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "rbvc-trace: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const Event& e : evs) {
    const char* name = rbvc::obs::events::type_name(e.type);
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    if (e.type == Type::kProtoStep) {
      // Complete event spanning the callback; ts is its end in the log, so
      // shift back by the duration to get the start.
      const double dur_us = static_cast<double>(e.a) / 1000.0;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"inst\":%d,"
                    "\"lp_ns\":%lld,\"lc\":%llu}}",
                    first ? "" : ",", name, e.node, e.node,
                    ts_us - dur_us, dur_us, e.instance,
                    static_cast<long long>(e.b),
                    static_cast<unsigned long long>(e.lamport));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,\"args\":{\"inst\":%d,"
                    "\"a\":%lld,\"b\":%lld,\"lc\":%llu}}",
                    first ? "" : ",", name, e.node, e.node, ts_us, e.instance,
                    static_cast<long long>(e.a), static_cast<long long>(e.b),
                    static_cast<unsigned long long>(e.lamport));
    }
    out << buf;
    first = false;
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string perfetto_path;
  long require_decided = -1;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--out") out_path = next();
    else if (a == "--perfetto") perfetto_path = next();
    else if (a == "--require-decided") require_decided = std::atol(next());
    else if (!a.empty() && a[0] == '-') usage(argv[0]);
    else inputs.push_back(a);
  }
  if (inputs.empty()) usage(argv[0]);

  std::vector<Event> all;
  for (const auto& path : inputs) {
    std::vector<Event> evs;
    try {
      evs = rbvc::obs::events::parse_jsonl(slurp(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rbvc-trace: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    all.insert(all.end(), evs.begin(), evs.end());
  }
  std::sort(all.begin(), all.end(), causal_less);

  // Causal verification: a receive must be ordered after the send it names.
  std::size_t stamped_rx = 0;
  std::size_t violations = 0;
  std::set<int> nodes;
  for (const Event& e : all) {
    if (e.node >= 0) nodes.insert(e.node);
    if (e.type == Type::kFrameRx && e.a > 0) {
      ++stamped_rx;
      if (e.lamport <= static_cast<std::uint64_t>(e.a)) {
        ++violations;
        if (violations <= 5) {
          std::fprintf(stderr,
                       "rbvc-trace: CAUSAL VIOLATION: node %d frame_rx "
                       "lc=%llu <= sender stamp %lld\n",
                       e.node, static_cast<unsigned long long>(e.lamport),
                       static_cast<long long>(e.a));
        }
      }
    }
  }

  // Attribution over instance-tagged events.
  Attribution t;
  std::set<int> decided;
  for (const Event& e : all) {
    switch (e.type) {
      case Type::kQueuePop:
        t.rx_queue_ns += static_cast<double>(e.a);
        break;
      case Type::kFrameTx:
      case Type::kFrameRx:
        t.codec_ns += static_cast<double>(e.b);
        break;
      case Type::kProtoStep:
        t.lp_ns += static_cast<double>(e.b);
        t.proto_ns += static_cast<double>(e.a - e.b);
        break;
      case Type::kInstanceDecided:
        t.decide_ns_sum += static_cast<double>(e.b);
        ++t.decide_reports;
        if (e.a == 1) decided.insert(e.instance);
        break;
      case Type::kDecision:
        t.client_ns_sum += static_cast<double>(e.b);
        ++t.client_decisions;
        if (e.a == 1) decided.insert(e.instance);
        break;
      case Type::kVerifyReject:
        ++t.rejects_by_sender[e.a];
        ++t.rejects;
        break;
      default:
        break;
    }
  }

  std::printf("events=%zu logs=%zu nodes=%zu lamport_max=%llu\n", all.size(),
              inputs.size(), nodes.size(),
              all.empty()
                  ? 0ULL
                  : static_cast<unsigned long long>(all.back().lamport));
  std::printf("causal: stamped_rx=%zu violations=%zu\n", stamped_rx,
              violations);
  std::printf("decided_instances=%zu\n", decided.size());
  std::printf("verify_rejects=%zu\n", t.rejects);
  for (const auto& [sender, count] : t.rejects_by_sender) {
    std::printf("  from node %lld: %zu\n", static_cast<long long>(sender),
                count);
  }

  const double n_dec = decided.empty() ? 1.0 : static_cast<double>(decided.size());
  const double active =
      t.rx_queue_ns + t.codec_ns + t.lp_ns + t.proto_ns;
  auto row = [&](const char* stage, double ns) {
    std::printf("  %-10s %12.3f ms total  %10.4f ms/decided  %5.1f%%\n",
                stage, ms(ns), ms(ns) / n_dec,
                active > 0 ? 100.0 * ns / active : 0.0);
  };
  std::printf("latency attribution (summed across nodes):\n");
  row("rx-queue", t.rx_queue_ns);
  row("codec", t.codec_ns);
  row("lp/geom", t.lp_ns);
  row("protocol", t.proto_ns);
  if (t.decide_reports > 0) {
    std::printf("  node decide latency: %.4f ms mean over %zu reports\n",
                ms(t.decide_ns_sum) / static_cast<double>(t.decide_reports),
                t.decide_reports);
  }
  if (t.client_decisions > 0) {
    std::printf("  client quorum latency: %.4f ms mean over %zu decisions\n",
                ms(t.client_ns_sum) / static_cast<double>(t.client_decisions),
                t.client_decisions);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "rbvc-trace: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << rbvc::obs::events::dump_jsonl(all);
  }
  if (!perfetto_path.empty()) write_perfetto(perfetto_path, all);

  if (violations > 0) {
    std::fprintf(stderr, "rbvc-trace: FAIL: %zu causal violations\n",
                 violations);
    return 1;
  }
  if (require_decided >= 0 &&
      decided.size() < static_cast<std::size_t>(require_decided)) {
    std::fprintf(stderr, "rbvc-trace: FAIL: %zu decided instances < %ld\n",
                 decided.size(), require_decided);
    return 1;
  }
  return 0;
}
