// The benchmark program. Usage:
//   rbvc_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--width W] [--out-dir DIR]
// Workloads: cluster-tcp, sweep-l2-f2, sweep-linf-f2, and cluster-bus, which
// runs but is not declared in BENCHMARK.json (see workloads.json). Prints
// human-readable lines, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when the correctness gate trips, 2 on a usage or
// set-up error (without a result line).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

extern char** environ;

namespace {

using perfbench::fmt;

const char* const kWorkloads[] = {"cluster-tcp", "cluster-bus", "sweep-l2-f2",
                                  "sweep-linf-f2"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rbvc_perfbench: %s\n"
               "usage: rbvc_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--width W] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

/// CPU brand string from cpuid (no file reads), or "unknown".
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Pins the harness knobs: a stray RBVC_WORKERS would fork a fleet, a stray
/// RBVC_REPLAY would replay a file instead of sweeping, RBVC_METRICS would
/// switch on the gated derived metrics (extra LP solves), and RBVC_JOBS
/// must be the stated pool width. Runs before anything reads them.
void pin_environment(std::size_t width) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("RBVC_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("RBVC_JOBS", std::to_string(width).c_str(), 1);
}

constexpr int kProbes = 8;  // before and after the workload each

/// Scales a sweep's end-to-end times to the reference CPU state. The host's
/// clock regime and its co-tenants move every CPU-bound time by up to 1.7x
/// between runs minutes apart (measured on a 4-vCPU VM: sweep-linf-f2 ran
/// at 210 then 125 episodes/s in consecutive runs of one build), which no
/// run length or median removes. They also slow single vCPUs for fractions
/// of a second: the probe's threads, one per vCPU, often differ 1.7x within
/// one probe. The probe runs a fixed numeric kernel on the workload's core
/// count before and after the workload and between sweep calls, and the
/// factor is the harmonic mean of all per-thread times -- the aggregate
/// speed the workload's threads share -- over the reference. Throughput is
/// multiplied and times are divided by it. The raw figures stay on the '#'
/// lines.
///
/// Cluster runs are not scaled: they are bound by syscalls and thread
/// wake-ups, which the kernel does not track. Over six cluster-tcp runs its
/// factor drifted from 0.85 to 1.13 while raw throughput stayed within 5%.
void scale_to_reference(perfbench::Report& rep, const std::vector<double>& probes) {
  double inverse = 0.0;
  for (const double t : probes) inverse += 1.0 / t;
  const double hmean = static_cast<double>(probes.size()) / inverse;
  const double factor = hmean / perfbench::kReferenceProbeSeconds;
  rep.note(fmt("cpu probe: %zu per-thread times, harmonic mean %.4f s (median "
               "%.4f, min %.4f, max %.4f), reference %.4f s: factor %.4f; raw "
               "ops_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, setup_s %.6g",
               probes.size(), hmean, perfbench::median(probes),
               *std::min_element(probes.begin(), probes.end()),
               *std::max_element(probes.begin(), probes.end()),
               perfbench::kReferenceProbeSeconds, factor, rep.values["ops_per_s"],
               rep.values["op_p50_ms"], rep.values["op_tail_ms"],
               rep.values["setup_s"]));
  rep.set("ops_per_s", rep.values["ops_per_s"] * factor);
  for (const char* time : {"op_p50_ms", "op_tail_ms", "setup_s"}) {
    rep.set(time, rep.values[time] / factor);
  }
}

void print_result(const perfbench::Report& rep, bool trace) {
  const auto& table = trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::string out = fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                        "\"metrics\": {",
                        rep.correct ? "true" : "false",
                        static_cast<unsigned long long>(rep.attempted),
                        static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (const perfbench::MetricDecl& m : table) {
    const auto it = rep.values.find(m.name);
    // A per-layer metric of a layer the workload does not run reads 0.
    const double v = it == rep.values.end() ? 0.0 : it->second;
    out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               first ? "" : ", ", m.name, v, m.unit);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  long trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace = std::strtol(v, &end, 10);
    } else if (a == "--width") {
      opt.width = std::strtoul(v, &end, 10);
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + a).c_str());
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  opt.trace = trace == 1;

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  if (opt.width == 0) opt.width = std::min<std::size_t>(nproc, 4);
  pin_environment(opt.width);

  std::printf("# fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %zu, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"pool_width\": %zu}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, nproc, cpu_model().c_str(),
              RBVC_PERFBENCH_COMPILER, RBVC_PERFBENCH_BUILD_TYPE, opt.width);
  std::fflush(stdout);

  perfbench::Report rep;
  try {
    // Untraced sweep runs bracket the workload with CPU speed probes (see
    // scale_to_reference).
    const bool sweep = opt.workload.rfind("sweep-", 0) == 0;
    std::vector<double> probes;
    const auto probe = [&] {
      for (int i = 0; i < kProbes && sweep && !opt.trace; ++i) {
        const std::vector<double> t = perfbench::probe_seconds(opt.width);
        probes.insert(probes.end(), t.begin(), t.end());
      }
    };
    probe();
    if (sweep) {
      rep = perfbench::run_sweep(opt, opt.workload == "sweep-linf-f2");
    } else {
      rep = perfbench::run_cluster(opt, opt.workload == "cluster-tcp");
    }
    probe();
    if (opt.trace) perfbench::add_regime_metrics(opt, rep);
    if (!opt.trace && sweep) {
      probes.insert(probes.end(), rep.probes.begin(), rep.probes.end());
      scale_to_reference(rep, probes);
    }
    if (!opt.trace) {
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      rep.set("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    }
    for (const perfbench::MetricDecl& m : perfbench::kEndToEnd) {
      if (!opt.trace && rep.values.count(m.name) == 0) {
        throw std::logic_error(std::string("end-to-end metric not set: ") + m.name);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rbvc_perfbench: error: %s\n", e.what());
    return 2;
  }

  for (const std::string& line : rep.notes) std::printf("# %s\n", line.c_str());
  if (!opt.trace) {
    std::printf("# rss_peak_mb = %.1f MiB  (peak RSS of this process)\n",
                rep.values["rss_peak_mb"]);
  }
  std::printf("# failed_frac = %.6g  (%llu failed of %llu attempted)\n",
              perfbench::ratio(static_cast<double>(rep.failed),
                               static_cast<double>(rep.attempted)),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  print_result(rep, opt.trace);
  return rep.correct ? 0 : 1;
}
