// Two-phase primal simplex for dense standard-form linear programs:
//
//     minimize    c . x
//     subject to  A x = b,  x >= 0.
//
// Phase 1 introduces artificial variables to find a basic feasible point
// (detecting infeasibility), then drives artificials out of the basis and
// deletes redundant rows; phase 2 optimizes. Dantzig pricing with an
// automatic switch to Bland's rule guards against cycling. All geometry
// feasibility questions in rbvc (hull membership, Gamma/Psi intersections,
// L1/Linf distances) reduce to this solver via lp::Model.
//
// IncrementalSolver adds warm starting on top of the same tableau core: it
// retains the final basis and tableau across solves and re-solves a
// same-shape matrix swap (moving between drop-f constraint blocks) by
// refactorizing the retained basis against the new columns. It falls back
// to a full cold solve when the retained state is unusable, recording the
// reason in the lp.warm.fallback.<reason> counters (see
// docs/OBSERVABILITY.md).
#pragma once

#include <memory>

#include "linalg/matrix.h"

namespace rbvc::lp {

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
};

const char* to_string(Status s);

struct SimplexOptions {
  double tol = 1e-9;           // pivot / reduced-cost tolerance
  std::size_t max_iters = 50'000;
  std::size_t bland_after = 2'000;  // stalled iterations before Bland's rule
};

struct Solution {
  Status status = Status::kIterLimit;
  double objective = 0.0;
  Vec x;  // primal values for the original variables (empty unless optimal)
};

/// Solves the standard-form LP above. A is m-by-n, b is m, c is n.
Solution solve_standard(const Matrix& a, const Vec& b, const Vec& c,
                        const SimplexOptions& opts = {});

namespace detail {
class Tableau;
}  // namespace detail

/// A reusable simplex solver that retains its tableau and basis between
/// solves so near-identical LPs can be re-solved warm.
///
/// Warm-start contract (see DESIGN.md "LP warm starts"):
///   * solve() is a cold solve identical in outcome to solve_standard(),
///     but it keeps the final tableau. The state is warm-eligible only when
///     the solve ended kOptimal with no redundant rows deleted.
///   * resolve(a, b, c) re-solves a same-shape problem by refactorizing
///     the retained basis against the new columns (LU), then finishing
///     with primal or dual pivots depending on which feasibility survived
///     the swap. Intended for constraint sets sharing most rows/columns
///     (drop-f subset swaps).
///   * Every fallback to a cold solve is recorded under
///     lp.warm.fallback_cold / lp.warm.fallback.<reason>.
///   * reset() forgets the retained state (the next solve is cold) while
///     keeping the allocated buffers, and is how callers scope determinism:
///     results never depend on solves made before the last reset().
class IncrementalSolver {
 public:
  explicit IncrementalSolver(SimplexOptions opts = {});
  ~IncrementalSolver();
  IncrementalSolver(IncrementalSolver&&) noexcept;
  IncrementalSolver& operator=(IncrementalSolver&&) noexcept;
  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Cold solve; retains the final tableau for subsequent warm re-solves.
  Solution solve(const Matrix& a, const Vec& b, const Vec& c);

  /// Warm re-solve of a same-shape problem via basis refactorization;
  /// falls back to a cold solve otherwise. A fresh solver (no retained
  /// state at all) treats this as a plain cold solve and records no
  /// warm-start attempt.
  Solution resolve(const Matrix& a, const Vec& b, const Vec& c);

  /// True when the retained state is eligible for warm re-solves.
  bool warm_ready() const { return warm_ok_; }

  /// Drops the retained solution state (keeps buffer capacity). The next
  /// solve is cold and results become independent of prior history.
  void reset();

  const SimplexOptions& options() const { return opts_; }
  void set_options(const SimplexOptions& opts) { opts_ = opts; }

 private:
  Solution cold(const Matrix& a, const Vec& b, const Vec& c,
                const char* fallback_reason);

  SimplexOptions opts_;
  std::unique_ptr<detail::Tableau> tab_;
  bool warm_ok_ = false;
  bool has_state_ = false;  // any prior solve (even a failed one)
};

}  // namespace rbvc::lp
