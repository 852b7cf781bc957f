#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// Dense LU factorisation with partial pivoting of a fixed 48x48 matrix
// (18 KiB, inside L1d), repeated. Like the program's LP, minimax and delta*
// code it is branchy floating-point row arithmetic with independent chains,
// so its time follows the core clock and the contention from co-tenants on
// the host's shared cores and caches. The benchmark owns the kernel: no
// change to the program can move it.
//
// A single dependent xorshift/FP chain, being latency-bound, misses most of
// that contention: across five sweep-l2-f2 runs such a chain moved 3% while
// the workload moved 15%, and scaling by it left an IQR/median of 0.14 on
// ops_per_s, where this kernel's median thread time left 0.025.
constexpr int kDim = 48;
constexpr int kRepeats = 2000;  // about 0.05 s

double kernel_seconds(std::uint64_t seed) {
  std::vector<double> a0(kDim * kDim);
  std::uint64_t x = seed | 1;
  for (double& v : a0) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<double>(x % 2001) / 1000.0 - 1.0;
  }
  std::vector<double> a(a0.size());
  double acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < kRepeats; ++r) {
    a = a0;
    a[static_cast<std::size_t>(r) % a.size()] += 1e-3 * r;  // no two alike
    for (int k = 0; k < kDim; ++k) {
      int p = k;
      for (int i = k + 1; i < kDim; ++i) {
        if (std::abs(a[i * kDim + k]) > std::abs(a[p * kDim + k])) p = i;
      }
      if (p != k) {
        for (int j = 0; j < kDim; ++j) std::swap(a[k * kDim + j], a[p * kDim + j]);
      }
      const double pivot = a[k * kDim + k];
      acc += std::log(std::abs(pivot) + 1e-300);
      for (int i = k + 1; i < kDim; ++i) {
        const double l = a[i * kDim + k] / pivot;
        for (int j = k + 1; j < kDim; ++j) a[i * kDim + j] -= l * a[k * kDim + j];
      }
    }
  }
  const double s = seconds_between(t0, now_ns());
  // Keep the result observable so the loops are not folded away.
  static std::atomic<double> sink{0.0};
  sink.store(acc, std::memory_order_relaxed);
  return s;
}

}  // namespace

std::vector<double> probe_seconds(std::size_t threads) {
  std::vector<double> t(threads);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&t, &go, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      t[i] = kernel_seconds(i + 1);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return t;
}

}  // namespace perfbench
