// The RBVC_JOBS determinism contract, end to end (ctest labels: fuzz,
// tsan): a property checked at 1 job and at 8 jobs must report the same
// verdict, the same lowest failing episode, and write a BYTE-identical
// repro file -- the parallel detection phase may reorder work, but never
// results. See docs/HARNESS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "harness/exhaustive.h"
#include "harness/property.h"
#include "workload/generators.h"

namespace rbvc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  // These tests pin RBVC_JOBS (and clear the other harness knobs) to get a
  // controlled environment; snapshot and restore so nothing leaks.
  void SetUp() override {
    save("RBVC_JOBS", jobs_);
    save("RBVC_REPLAY", replay_);
    save("RBVC_FUZZ_EPISODES", episodes_);
    ::unsetenv("RBVC_REPLAY");
    ::unsetenv("RBVC_FUZZ_EPISODES");
  }
  void TearDown() override {
    restore("RBVC_JOBS", jobs_);
    restore("RBVC_REPLAY", replay_);
    restore("RBVC_FUZZ_EPISODES", episodes_);
  }

 private:
  static void save(const char* name, std::pair<bool, std::string>& slot) {
    const char* v = std::getenv(name);
    slot = {v != nullptr, v ? v : ""};
  }
  static void restore(const char* name,
                      const std::pair<bool, std::string>& slot) {
    if (slot.first) {
      ::setenv(name, slot.second.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  std::pair<bool, std::string> jobs_;
  std::pair<bool, std::string> replay_;
  std::pair<bool, std::string> episodes_;
};

/// Fails on several episodes (the sub-quorum override lets divergent views
/// surface as disagreement); the harness must always report the LOWEST.
harness::AsyncProperty planted_property(
    const std::string& repro_dir,
    workload::SchedulerKind scheduler = workload::SchedulerKind::kRandom) {
  harness::AsyncProperty prop;
  prop.name = scheduler == workload::SchedulerKind::kRandom
                  ? "parallel_determinism_planted"
                  : "parallel_determinism_planted_laggard";
  prop.generate = [scheduler](Rng& rng) {
    workload::AsyncExperiment e;
    e.prm.n = 4;
    e.prm.f = 1;
    e.prm.rounds = 2;
    e.prm.use_witness = false;
    e.prm.quorum_override = 2;  // test-only hook: quorum below n - f
    e.d = 2;
    e.honest_inputs = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
    e.scheduler = scheduler;
    e.seed = rng.next_u64();
    return e;
  };
  prop.oracle = harness::decide_agree_valid_oracle(0.5, 1.0);
  prop.episodes = 24;
  prop.shrink_budget = 120;
  prop.repro_dir = repro_dir;
  return prop;
}

harness::AsyncProperty healthy_property() {
  harness::AsyncProperty prop;
  prop.name = "parallel_determinism_healthy";
  prop.generate = [](Rng& rng) {
    workload::AsyncExperiment e;
    e.prm.n = 4;
    e.prm.f = 1;
    e.prm.rounds = 4;
    e.d = 2;
    e.honest_inputs = workload::gaussian_cloud(rng, 3, 2);
    e.byzantine_ids = {rng.below(4)};
    e.strategy = workload::AsyncStrategy::kOutlierInput;
    e.seed = rng.next_u64();
    return e;
  };
  prop.oracle = harness::decide_agree_valid_oracle(0.5, 1.0);
  prop.episodes = 16;
  prop.repro_dir = ::testing::TempDir();
  return prop;
}

/// Checks the planted property at RBVC_JOBS 1 and 8: same verdict and a
/// byte-identical repro file. `tag` keeps each caller's repro dirs apart.
void expect_same_failure_across_jobs(workload::SchedulerKind scheduler,
                                     const std::string& tag) {
  // Serial reference run (jobs = 1), repro written into its own dir so the
  // parallel run cannot just overwrite-and-match trivially.
  const std::string dir1 = ::testing::TempDir() + "/" + tag + "1";
  const std::string dir8 = ::testing::TempDir() + "/" + tag + "8";
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir8);

  ::setenv("RBVC_JOBS", "1", 1);
  const auto serial = harness::check_property<harness::AsyncRunner>(
      planted_property(dir1, scheduler));
  ASSERT_FALSE(serial.passed) << harness::describe(serial);
  ASSERT_FALSE(serial.repro_path.empty());

  ::setenv("RBVC_JOBS", "8", 1);
  const auto parallel = harness::check_property<harness::AsyncRunner>(
      planted_property(dir8, scheduler));
  ASSERT_FALSE(parallel.passed) << harness::describe(parallel);
  ASSERT_FALSE(parallel.repro_path.empty());

  // Identical verdict: episode index, oracle message, schedule lengths.
  EXPECT_EQ(parallel.failing_episode, serial.failing_episode);
  EXPECT_EQ(parallel.episodes, serial.episodes);
  EXPECT_EQ(parallel.failure, serial.failure);
  EXPECT_EQ(parallel.original_len, serial.original_len);
  EXPECT_EQ(parallel.shrunk_len, serial.shrunk_len);

  // Byte-identical repro files (schedule, trace dump, metrics snapshot).
  EXPECT_NE(parallel.repro_path, serial.repro_path);
  EXPECT_EQ(slurp(parallel.repro_path), slurp(serial.repro_path));
}

TEST_F(ParallelDeterminismTest, SameFailureAndByteIdenticalReproAcrossJobs) {
  expect_same_failure_across_jobs(workload::SchedulerKind::kRandom, "jobs");
}

TEST_F(ParallelDeterminismTest, LaggardSameFailureAndByteIdenticalReproAcrossJobs) {
  // The laggard scheduler's path -- the one the benchmark sweeps and the
  // chaos and harness suites run -- where picks draw from the pool's
  // preferred (laggard-free) messages.
  expect_same_failure_across_jobs(workload::SchedulerKind::kLaggard,
                                  "laggard_jobs");
}

TEST_F(ParallelDeterminismTest, JobsBeyondHardwareConcurrencyStayExact) {
  // Oversubscription must not bend the contract: a width far above
  // hardware_concurrency still reports the same lowest episode and writes
  // the same bytes as the serial run.
  const std::string dir1 = ::testing::TempDir() + "/jobs1_over";
  const std::string dir64 = ::testing::TempDir() + "/jobs64_over";
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir64);

  ::setenv("RBVC_JOBS", "1", 1);
  const auto serial = harness::check_property<harness::AsyncRunner>(planted_property(dir1));
  ASSERT_FALSE(serial.passed) << harness::describe(serial);

  const unsigned hw = std::thread::hardware_concurrency();
  const std::string wide = std::to_string(std::max(64u, 2 * hw));
  ::setenv("RBVC_JOBS", wide.c_str(), 1);
  const auto over = harness::check_property<harness::AsyncRunner>(planted_property(dir64));
  ASSERT_FALSE(over.passed) << harness::describe(over);

  EXPECT_EQ(over.failing_episode, serial.failing_episode);
  EXPECT_EQ(over.failure, serial.failure);
  EXPECT_EQ(slurp(over.repro_path), slurp(serial.repro_path));
}

/// The exhaustive-exploration counterexample path (PR 7): the planted RBC
/// equivocation from the mc boundary suite, checked at frontier width 1
/// and 16. The witness DFS finds, the minimized schedule, and the repro
/// file bytes must all be identical.
harness::ExhaustiveProperty<harness::RbcRunner> planted_mc_property(
    const std::string& repro_dir, std::size_t jobs) {
  harness::ExhaustiveProperty<harness::RbcRunner> prop;
  prop.name = "parallel_determinism_mc_planted";
  workload::RbcExperiment e;
  e.n = 4;
  e.f = 1;
  e.byzantine_ids = {3};
  e.strategy = workload::AsyncStrategy::kEquivocate;
  e.honest_inputs = {Vec{1.0}, Vec{2.0}, Vec{3.0}};
  e.broadcasters = {};
  e.quorums = {1, 1, 1};
  e.max_events = 6;
  e.seed = 5;
  prop.experiment = e;
  prop.oracle = harness::rbc_safety_oracle();
  prop.judge_truncated = true;  // safety clauses are prefix-sound
  prop.options.jobs = jobs;
  prop.repro_dir = repro_dir;
  return prop;
}

TEST_F(ParallelDeterminismTest, McCounterexampleIsByteIdenticalAcrossJobs) {
  const std::string dir1 = ::testing::TempDir() + "/mc_jobs1";
  const std::string dir16 = ::testing::TempDir() + "/mc_jobs16";
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir16);

  const auto serial =
      harness::check_property_exhaustive(planted_mc_property(dir1, 1));
  ASSERT_FALSE(serial.passed);
  ASSERT_FALSE(serial.repro_path.empty());

  const auto wide =
      harness::check_property_exhaustive(planted_mc_property(dir16, 16));
  ASSERT_FALSE(wide.passed);
  ASSERT_FALSE(wide.repro_path.empty());

  // Same violation, same witness length, same minimized schedule.
  EXPECT_EQ(wide.failure, serial.failure);
  EXPECT_EQ(wide.original_len, serial.original_len);
  EXPECT_EQ(wide.shrunk_len, serial.shrunk_len);
  // And the files agree byte for byte (schedule, trace, metrics snapshot).
  EXPECT_NE(wide.repro_path, serial.repro_path);
  EXPECT_EQ(slurp(wide.repro_path), slurp(serial.repro_path));
}

TEST_F(ParallelDeterminismTest, HealthyPropertyPassesAtAnyWidth) {
  for (const char* jobs : {"1", "3", "8"}) {
    ::setenv("RBVC_JOBS", jobs, 1);
    const auto res = harness::check_property<harness::AsyncRunner>(healthy_property());
    EXPECT_TRUE(res.passed)
        << "jobs=" << jobs << ": " << harness::describe(res);
    EXPECT_EQ(res.episodes, 16u) << "jobs=" << jobs;
    EXPECT_TRUE(res.repro_path.empty()) << "jobs=" << jobs;
  }
}

TEST_F(ParallelDeterminismTest, SeedSequenceMatchesHistoricalDerivation) {
  // The parallel engine is only byte-compatible with pre-pool runs because
  // seed_sequence reproduces the exact golden-ratio stride check_property
  // always used. Pin it.
  constexpr std::uint64_t base = 20260806;
  for (std::uint64_t ep : {0ull, 1ull, 7ull, 1000ull}) {
    EXPECT_EQ(seed_sequence(base, ep),
              base + 0x9E3779B97F4A7C15ULL * (ep + 1));
  }
}

}  // namespace
}  // namespace rbvc
