#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.h"
#include "sim/rng.h"

namespace rbvc::lp {
namespace {

TEST(SimplexTest, SolvesBasicProblem) {
  // min -x - y  s.t.  x + y + s = 4, x + 3y + t = 6  (x,y,s,t >= 0)
  Matrix a(2, 4);
  a(0, 0) = 1; a(0, 1) = 1; a(0, 2) = 1;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 3) = 1;
  const auto sol = solve_standard(a, {4.0, 6.0}, {-1.0, -1.0, 0.0, 0.0});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);  // optimum at x=4 or x=3,y=1
}

TEST(SimplexTest, DetectsInfeasible) {
  // x = 1 and x = 2 simultaneously.
  Matrix a(2, 1);
  a(0, 0) = 1;
  a(1, 0) = 1;
  const auto sol = solve_standard(a, {1.0, 2.0}, {0.0});
  EXPECT_EQ(sol.status, Status::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // min -x s.t. x - y = 0: x can grow forever with y.
  Matrix a(1, 2);
  a(0, 0) = 1;
  a(0, 1) = -1;
  const auto sol = solve_standard(a, {0.0}, {-1.0, 0.0});
  EXPECT_EQ(sol.status, Status::kUnbounded);
}

TEST(SimplexTest, HandlesNegativeRhs) {
  // -x = -3  =>  x = 3.
  Matrix a(1, 1);
  a(0, 0) = -1;
  const auto sol = solve_standard(a, {-3.0}, {1.0});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(SimplexTest, RedundantRowsAreDropped) {
  // Same constraint twice: phase 1 must not declare it infeasible.
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 1;
  const auto sol = solve_standard(a, {2.0, 2.0}, {1.0, 0.0});
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);  // put everything on x2
}

TEST(SimplexTest, NoConstraints) {
  const auto ok = solve_standard(Matrix(0, 2), {}, {1.0, 1.0});
  EXPECT_EQ(ok.status, Status::kOptimal);
  const auto unb = solve_standard(Matrix(0, 2), {}, {-1.0, 1.0});
  EXPECT_EQ(unb.status, Status::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic cycling-prone structure (Beale): must terminate via Bland.
  Matrix a(3, 7);
  const double rows[3][7] = {
      {0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0},
      {0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0},
      {0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0},
  };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 7; ++c) a(r, c) = rows[r][c];
  }
  const Vec b = {0.0, 0.0, 1.0};
  const Vec c = {-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0};
  const auto sol = solve_standard(a, b, c);
  ASSERT_EQ(sol.status, Status::kOptimal);
  // Optimum at x = (1, 0, 1, 0): z = -0.75 - 0.02 = -0.77.
  EXPECT_NEAR(sol.objective, -0.77, 1e-9);
}

TEST(SimplexTest, RandomFeasibilityAgainstConstruction) {
  // Construct random feasible systems (x0 known feasible); phase 1 must
  // succeed, and the optimum must satisfy A x = b, x >= 0.
  Rng rng(21);
  for (int rep = 0; rep < 25; ++rep) {
    const std::size_t m = 3, n = 6;
    Matrix a(m, n);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    }
    Vec x0(n);
    for (double& v : x0) v = rng.uniform(0.0, 2.0);
    const Vec b = a * x0;
    Vec c(n);
    for (double& v : c) v = rng.normal();
    const auto sol = solve_standard(a, b, c);
    ASSERT_NE(sol.status, Status::kInfeasible) << "rep " << rep;
    if (sol.status != Status::kOptimal) continue;  // unbounded draws OK
    const Vec res = sub(a * sol.x, b);
    EXPECT_LT(norm2(res), 1e-6);
    for (double v : sol.x) EXPECT_GE(v, -1e-9);
    // Optimal objective can be no worse than the known feasible point's.
    EXPECT_LE(sol.objective, dot(c, x0) + 1e-7);
  }
}

TEST(SimplexTest, StatusToString) {
  EXPECT_STREQ(to_string(Status::kOptimal), "optimal");
  EXPECT_STREQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(Status::kIterLimit), "iteration-limit");
}

// thread_solve_ns() is this thread's share of lp.seconds: a thread that
// solves nothing reads no change while another thread solves, and the
// solving thread's total is the whole of lp.seconds' growth.
TEST(SimplexTest, SolveTimeIsCountedPerThread) {
  auto lp_seconds_sum = [] {
    const obs::Histogram* h = obs::global().find_histogram("lp.seconds");
    return h == nullptr ? 0.0 : h->sum();
  };
  Matrix a(2, 4);
  a(0, 0) = 1; a(0, 1) = 1; a(0, 2) = 1;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 3) = 1;
  const std::uint64_t reader_before = thread_solve_ns();
  const double sum_before = lp_seconds_sum();
  std::uint64_t solver_before = 1, solver_after = 0;
  std::thread solver([&] {
    solver_before = thread_solve_ns();
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(solve_standard(a, {4.0, 6.0}, {-1.0, -1.0, 0.0, 0.0}).status,
                Status::kOptimal);
    }
    solver_after = thread_solve_ns();
  });
  solver.join();
  EXPECT_EQ(thread_solve_ns() - reader_before, 0u);
  EXPECT_EQ(solver_before, 0u);  // a new thread starts at 0
  EXPECT_GT(solver_after, 0u);
  const double grown_ns = (lp_seconds_sum() - sum_before) * 1e9;
  EXPECT_NEAR(static_cast<double>(solver_after), grown_ns,
              1e-6 * grown_ns + 1.0);
}

}  // namespace
}  // namespace rbvc::lp
