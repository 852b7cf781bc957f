// High-level LP model builder on top of the standard-form simplex core.
//
// Supports nonnegative and free variables, <= / >= / == rows, and both
// optimization senses. Free variables are split (x = x+ - x-) and slack /
// surplus columns are added during lowering; the reported solution is in
// terms of the modeled variables.
//
// The lowering (standard-form A, b, c) is cached until the next edit
// (add_var, add_constraint, set_objective_coeff, set_sense); each solve()
// hands it to one cold solve_standard().
#pragma once

#include <vector>

#include "lp/simplex.h"

namespace rbvc::lp {

enum class Sense { kMinimize, kMaximize };
enum class Rel { kLe, kGe, kEq };

class Model {
 public:
  using VarId = std::size_t;

  /// Adds a variable with the given objective coefficient.
  /// `free` variables range over all reals; otherwise x >= 0.
  VarId add_var(double objective_coeff = 0.0, bool free = false);

  /// Adds `count` variables sharing the same settings; returns the first id
  /// (ids are consecutive).
  VarId add_vars(std::size_t count, double objective_coeff = 0.0,
                 bool free = false);

  /// Adds the constraint  sum_i terms[i].coeff * x_{terms[i].var}  REL  rhs.
  struct Term {
    VarId var;
    double coeff;
  };
  void add_constraint(const std::vector<Term>& terms, Rel rel, double rhs);

  void set_objective_coeff(VarId v, double c);
  void set_sense(Sense s) {
    sense_ = s;
    lowered_.valid = false;
  }

  std::size_t num_vars() const { return free_.size(); }
  std::size_t num_constraints() const { return rels_.size(); }

  /// Lowers to standard form and solves. `objective` in the result is in the
  /// model's sense (i.e. negated back for maximization).
  Solution solve(const SimplexOptions& opts = {}) const;

  /// Whether x (one value per model variable) meets every row and every
  /// x >= 0 bound to within eps. The simplex can report kOptimal for a
  /// basis that drifted infeasible on ill-conditioned rows; callers that
  /// certify a bound with the optimum check the answer here first.
  bool satisfies(const Vec& x, double eps) const;

 private:
  struct Lowered {
    Matrix a;
    Vec b;
    Vec c;
    std::vector<std::size_t> col_of;      // positive-part column per var
    std::vector<std::size_t> neg_col_of;  // negative-part column (free vars)
    bool valid = false;
  };

  const Lowered& lower() const;
  Solution translate_back(const Solution& raw) const;

  Sense sense_ = Sense::kMinimize;
  std::vector<double> obj_;
  std::vector<bool> free_;
  std::vector<std::vector<Term>> rows_;
  std::vector<Rel> rels_;
  std::vector<double> rhs_;
  mutable Lowered lowered_;
};

}  // namespace rbvc::lp
