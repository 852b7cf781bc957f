#include "lp/model.h"

#include <gtest/gtest.h>

namespace rbvc::lp {
namespace {

TEST(ModelTest, MaximizeWithInequalities) {
  // max 3x + 2y  s.t.  x + y <= 4,  x <= 2  (x, y >= 0)  ->  (2, 2), z = 10.
  Model m;
  const auto x = m.add_var(3.0);
  const auto y = m.add_var(2.0);
  m.set_sense(Sense::kMaximize);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 4.0);
  m.add_constraint({{x, 1.0}}, Rel::kLe, 2.0);
  const auto sol = m.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
}

TEST(ModelTest, FreeVariables) {
  // min x  s.t.  x >= -5  with x free -> x = -5.
  Model m;
  const auto x = m.add_var(1.0, /*free=*/true);
  m.add_constraint({{x, 1.0}}, Rel::kGe, -5.0);
  const auto sol = m.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[x], -5.0, 1e-9);
}

TEST(ModelTest, EqualityConstraints) {
  Model m;
  const auto x = m.add_var(0.0, true);
  const auto y = m.add_var(0.0, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 3.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kEq, 1.0);
  const auto sol = m.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
}

TEST(ModelTest, InfeasibleReported) {
  Model m;
  const auto x = m.add_var();
  m.add_constraint({{x, 1.0}}, Rel::kGe, 2.0);
  m.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  EXPECT_EQ(m.solve().status, Status::kInfeasible);
}

TEST(ModelTest, UnboundedReported) {
  Model m;
  const auto x = m.add_var(1.0, /*free=*/true);
  m.add_constraint({{x, 1.0}}, Rel::kLe, 0.0);
  EXPECT_EQ(m.solve().status, Status::kUnbounded);
}

TEST(ModelTest, AddVarsBatch) {
  Model m;
  const auto first = m.add_vars(3, 1.0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(m.num_vars(), 3u);
  EXPECT_THROW(m.add_vars(0), invalid_argument);
}

TEST(ModelTest, RepeatedTermsAccumulate) {
  // x + x <= 4  should behave as 2x <= 4.
  Model m;
  const auto x = m.add_var(-1.0);
  m.add_constraint({{x, 1.0}, {x, 1.0}}, Rel::kLe, 4.0);
  const auto sol = m.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
}

TEST(ModelTest, UnknownVariableThrows) {
  Model m;
  (void)m.add_var();
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Rel::kLe, 1.0), invalid_argument);
  EXPECT_THROW(m.set_objective_coeff(9, 1.0), invalid_argument);
}

TEST(ModelTest, SatisfiesChecksRowsAndBounds) {
  // x >= 0, y free:  x + y <= 4,  x - y >= -1,  x + 2y == 3.
  Model m;
  const auto x = m.add_var();
  const auto y = m.add_var(0.0, /*free=*/true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 4.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kGe, -1.0);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Rel::kEq, 3.0);
  EXPECT_TRUE(m.satisfies({1.0, 1.0}, 0.0));
  EXPECT_TRUE(m.satisfies({1.0 + 1e-7, 1.0}, 1e-6));  // within eps
  EXPECT_FALSE(m.satisfies({1.0 + 1e-7, 1.0}, 1e-9));  // equality off
  EXPECT_FALSE(m.satisfies({-1.0, 2.0}, 1e-9));        // x < 0
  EXPECT_TRUE(m.satisfies({5.0, -1.0}, 1e-9));         // y may be negative
  EXPECT_FALSE(m.satisfies({0.0, 1.5}, 1e-9));         // x - y < -1
  EXPECT_FALSE(m.satisfies({7.0, -2.0}, 1e-9));        // x + y > 4
  EXPECT_THROW(m.satisfies({1.0}, 1e-9), rbvc::invalid_argument);
}

TEST(ModelTest, SetObjectiveLater) {
  Model m;
  const auto x = m.add_var();
  m.add_constraint({{x, 1.0}}, Rel::kLe, 7.0);
  m.set_objective_coeff(x, -1.0);  // min -x -> x = 7
  const auto sol = m.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[x], 7.0, 1e-9);
}

}  // namespace
}  // namespace rbvc::lp
