#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/lu.h"
#include "obs/metrics.h"

namespace rbvc::lp {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterLimit:
      return "iteration-limit";
  }
  return "unknown";
}

namespace detail {

// Dense tableau state. Rows are constraint rows; two separate reduced-cost
// rows (phase 1 and phase 2) are updated through every pivot so the phase
// switch is free.
//
// The object is reusable: init() re-fills the existing storage, so a
// retained Tableau inside an IncrementalSolver allocates only when the
// problem grows past any previously seen size.
class Tableau {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void init(const Matrix& a, const Vec& b, const Vec& c,
            const SimplexOptions& opts) {
    opts_ = opts;
    n_ = a.cols();
    m_ = a.rows();
    total_ = n_ + m_;
    rows_dropped_ = false;
    pivots_ = 0;
    rows_.resize(m_);
    basis_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      rows_[i].assign(total_ + 1, 0.0);
      const double s = (b[i] < 0.0) ? -1.0 : 1.0;
      for (std::size_t j = 0; j < n_; ++j) rows_[i][j] = s * a(i, j);
      rows_[i][n_ + i] = 1.0;  // artificial
      rows_[i][total_] = s * b[i];
      basis_[i] = n_ + i;
    }
    // Phase-1 reduced costs: r1[j] = -sum_i T[i][j] for non-artificials.
    cost1_.assign(total_ + 1, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) cost1_[j] -= rows_[i][j];
      cost1_[total_] -= rows_[i][total_];
    }
    // Phase-2 reduced costs start as the raw costs (basic artificials have
    // zero phase-2 cost, so nothing to price out yet).
    cost2_.assign(total_ + 1, 0.0);
    for (std::size_t j = 0; j < n_; ++j) cost2_[j] = c[j];
  }

  // Rebuilds the tableau for a same-shape problem (a is m-by-n with the
  // init()-time m and n) starting from the given basis instead of the
  // artificial one: factorizes the basis columns and forms B^{-1}[A | I | b]
  // plus the phase-2 reduced-cost row. Returns false (leaving the tableau
  // unusable until the next init) when the basis is numerically singular.
  bool init_from_basis(const Matrix& a, const Vec& b, const Vec& c,
                       const std::vector<std::size_t>& basis,
                       const SimplexOptions& opts) {
    opts_ = opts;
    n_ = a.cols();
    m_ = a.rows();
    total_ = n_ + m_;
    rows_dropped_ = false;
    pivots_ = 0;
    basis_ = basis;
    Matrix bmat(m_, m_);
    for (std::size_t k = 0; k < m_; ++k) {
      for (std::size_t i = 0; i < m_; ++i) bmat(i, k) = a(i, basis[k]);
    }
    LU lu(bmat, opts_.tol);
    if (lu.singular()) return false;

    rows_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) rows_[i].assign(total_ + 1, 0.0);
    // Column-by-column: T[:, j] = B^{-1} A[:, j]; artificial block B^{-1} I;
    // RHS column B^{-1} b.
    Vec col(m_), sol;
    for (std::size_t j = 0; j < n_; ++j) {
      for (std::size_t i = 0; i < m_; ++i) col[i] = a(i, j);
      sol = lu.solve(col);
      for (std::size_t i = 0; i < m_; ++i) rows_[i][j] = sol[i];
    }
    for (std::size_t j = 0; j < m_; ++j) {
      std::fill(col.begin(), col.end(), 0.0);
      col[j] = 1.0;
      sol = lu.solve(col);
      for (std::size_t i = 0; i < m_; ++i) rows_[i][n_ + j] = sol[i];
    }
    sol = lu.solve(b);
    for (std::size_t i = 0; i < m_; ++i) rows_[i][total_] = sol[i];

    // Phase-2 reduced costs: c_j - c_B . T[:, j]; RHS entry -c_B . B^{-1} b.
    cost1_.assign(total_ + 1, 0.0);  // never used warm; keep consistent size
    cost2_.assign(total_ + 1, 0.0);
    for (std::size_t j = 0; j <= total_; ++j) {
      double cb_t = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        cb_t += c[basis_[i]] * rows_[i][j];
      }
      const double raw = (j < n_) ? c[j] : 0.0;
      cost2_[j] = raw - cb_t;
    }
    // Snap the basic columns' reduced costs to exactly zero (they are by
    // construction; roundoff otherwise leaks into the feasibility checks).
    for (std::size_t i = 0; i < m_; ++i) cost2_[basis_[i]] = 0.0;
    return true;
  }

  // Runs the phase using the given cost row; returns the terminating status
  // (kOptimal means the phase's optimum was reached).
  Status run_phase(std::vector<double>& cost, bool allow_artificials) {
    std::size_t stalled = 0;
    double last_obj = -cost[total_];
    for (std::size_t iter = 0; iter < opts_.max_iters; ++iter) {
      const bool bland = stalled >= opts_.bland_after;
      const std::size_t enter = pick_entering(cost, allow_artificials, bland);
      if (enter == kNone) return Status::kOptimal;
      const std::size_t leave = pick_leaving(enter, bland);
      if (leave == kNone) return Status::kUnbounded;
      pivot(leave, enter);
      const double obj = -cost[total_];
      if (obj < last_obj - opts_.tol) {
        stalled = 0;
        last_obj = obj;
      } else {
        ++stalled;
      }
    }
    return Status::kIterLimit;
  }

  // Dual simplex on the phase-2 cost row, from a dual-feasible basis:
  // repeatedly drives the most-negative RHS row out of the basis, entering
  // the column that keeps the reduced costs non-negative (min ratio).
  // kOptimal = primal feasibility restored (optimum); kInfeasible = a
  // negative row with no negative entries certifies emptiness. Artificial
  // columns never enter. Deterministic: lowest index wins exact ties.
  Status run_dual() {
    for (std::size_t iter = 0; iter < opts_.max_iters; ++iter) {
      std::size_t leave = kNone;
      double most = -opts_.tol;
      for (std::size_t i = 0; i < m_; ++i) {
        if (rows_[i][total_] < most) {
          most = rows_[i][total_];
          leave = i;
        }
      }
      if (leave == kNone) return Status::kOptimal;
      const auto& lrow = rows_[leave];
      std::size_t enter = kNone;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < n_; ++j) {
        const double a = lrow[j];
        if (a >= -opts_.tol) continue;
        const double ratio = cost2_[j] / (-a);
        if (ratio < best_ratio) {
          best_ratio = ratio;
          enter = j;
        }
      }
      if (enter == kNone) return Status::kInfeasible;
      pivot(leave, enter);
    }
    return Status::kIterLimit;
  }

  double phase1_objective() const { return -cost1_[total_]; }
  double phase2_objective() const { return -cost2_[total_]; }
  double rhs(std::size_t i) const { return rows_[i][total_]; }
  std::size_t pivots() const { return pivots_; }
  std::vector<double>& cost1() { return cost1_; }
  std::vector<double>& cost2() { return cost2_; }
  bool rows_dropped() const { return rows_dropped_; }
  const std::vector<std::size_t>& basis() const { return basis_; }
  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  // After phase 1: pivot basic artificials onto original columns where
  // possible; rows that cannot be pivoted are redundant. A single
  // compaction sweep then removes the redundant rows, keeping row/basis
  // alignment intact throughout (no mid-loop erase).
  void drive_out_artificials() {
    std::vector<char> drop(rows_.size(), 0);
    bool any = false;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < n_) continue;
      std::size_t j = kNone;
      for (std::size_t col = 0; col < n_; ++col) {
        if (std::abs(rows_[i][col]) > opts_.tol) {
          j = col;
          break;
        }
      }
      if (j == kNone) {
        drop[i] = 1;
        any = true;
      } else {
        pivot(i, j);
      }
    }
    if (!any) return;
    std::size_t w = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (drop[i]) continue;
      if (w != i) {
        rows_[w].swap(rows_[i]);
        basis_[w] = basis_[i];
      }
      ++w;
    }
    rows_.resize(w);
    basis_.resize(w);
    m_ = w;
    rows_dropped_ = true;
  }

  Vec extract_x() const {
    Vec x(n_, 0.0);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < n_) x[basis_[i]] = rows_[i][total_];
    }
    return x;
  }

 private:
  std::size_t pick_entering(const std::vector<double>& cost,
                            bool allow_artificials, bool bland) const {
    const std::size_t limit = allow_artificials ? total_ : n_;
    std::size_t best = kNone;
    double best_val = -opts_.tol;
    for (std::size_t j = 0; j < limit; ++j) {
      const double r = cost[j];
      if (r < best_val) {
        if (bland) return j;  // first (lowest-index) improving column
        best_val = r;
        best = j;
      }
    }
    return best;
  }

  std::size_t pick_leaving(std::size_t enter, bool bland) const {
    std::size_t best = kNone;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double a = rows_[i][enter];
      if (a <= opts_.tol) continue;
      const double ratio = rows_[i][total_] / a;
      const bool better =
          ratio < best_ratio - opts_.tol ||
          (ratio < best_ratio + opts_.tol && best != kNone &&
           (bland ? basis_[i] < basis_[best] : a > rows_[best][enter]));
      if (best == kNone || better) {
        best_ratio = std::min(best_ratio, ratio);
        best = i;
      }
    }
    return best;
  }

  void pivot(std::size_t r, std::size_t c) {
    auto& prow = rows_[r];
    const double inv = 1.0 / prow[c];
    for (double& v : prow) v *= inv;
    prow[c] = 1.0;  // kill roundoff
    auto eliminate = [&](std::vector<double>& row) {
      const double f = row[c];
      if (f == 0.0) return;
      const double* src = prow.data();
      double* dst = row.data();
      for (std::size_t j = 0; j <= total_; ++j) {
        dst[j] -= f * src[j];
      }
      dst[c] = 0.0;
    };
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != r) eliminate(rows_[i]);
    }
    eliminate(cost1_);
    eliminate(cost2_);
    basis_[r] = c;
    ++pivots_;
  }

  SimplexOptions opts_;
  std::size_t pivots_ = 0;
  std::size_t n_ = 0, m_ = 0, total_ = 0;
  bool rows_dropped_ = false;
  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> basis_;
  std::vector<double> cost1_, cost2_;
};

}  // namespace detail

namespace {

using detail::Tableau;

void record_outcome(const Solution& s, std::size_t pivots) {
  obs::Registry& reg = obs::global();
  reg.counter("lp.pivots").inc(pivots);
  reg.counter(std::string("lp.status.") + to_string(s.status)).inc();
}

// Trivial LP with no constraint rows: optimum 0 at x = 0 unless some cost
// is negative (then unbounded).
Solution solve_empty(std::size_t n, const Vec& c, const SimplexOptions& opts) {
  Solution sol;
  sol.status = Status::kOptimal;
  for (double cj : c) {
    if (cj < -opts.tol) {
      sol.status = Status::kUnbounded;
      break;
    }
  }
  if (sol.status == Status::kOptimal) sol.x = zeros(n);
  record_outcome(sol, 0);
  return sol;
}

// Runs the full two-phase solve on an init()-ed tableau.
Solution run_cold(Tableau& t, const Vec& b, const SimplexOptions& opts) {
  Solution sol;
  const Status p1 = t.run_phase(t.cost1(), /*allow_artificials=*/true);
  if (p1 == Status::kIterLimit) {
    sol.status = p1;
    return sol;
  }
  // Feasibility tolerance scales with the RHS magnitude.
  double bscale = 1.0;
  for (double v : b) bscale = std::max(bscale, std::abs(v));
  if (t.phase1_objective() > opts.tol * bscale * 10.0) {
    sol.status = Status::kInfeasible;
    return sol;
  }
  t.drive_out_artificials();

  const Status p2 = t.run_phase(t.cost2(), /*allow_artificials=*/false);
  sol.status = p2;
  if (p2 == Status::kOptimal) {
    sol.objective = t.phase2_objective();
    sol.x = t.extract_x();
  }
  return sol;
}

void check_shapes(const Matrix& a, const Vec& b, const Vec& c) {
  RBVC_REQUIRE(a.rows() == b.size(), "simplex: A/b shape mismatch");
  RBVC_REQUIRE(a.cols() == c.size(), "simplex: A/c shape mismatch");
}

void record_fallback(const char* reason) {
  obs::Registry& reg = obs::global();
  reg.counter("lp.warm.fallback_cold").inc();
  reg.counter(std::string("lp.warm.fallback.") + reason).inc();
}

}  // namespace

Solution solve_standard(const Matrix& a, const Vec& b, const Vec& c,
                        const SimplexOptions& opts) {
  check_shapes(a, b, c);
  obs::Registry& reg = obs::global();
  reg.counter("lp.solves").inc();
  obs::ScopedTimer timer(reg, "lp.seconds");
  if (a.rows() == 0) return solve_empty(a.cols(), c, opts);

  Tableau t;
  t.init(a, b, c, opts);
  Solution sol = run_cold(t, b, opts);
  record_outcome(sol, t.pivots());
  return sol;
}

IncrementalSolver::IncrementalSolver(SimplexOptions opts) : opts_(opts) {}
IncrementalSolver::~IncrementalSolver() = default;
IncrementalSolver::IncrementalSolver(IncrementalSolver&&) noexcept = default;
IncrementalSolver& IncrementalSolver::operator=(IncrementalSolver&&) noexcept =
    default;

void IncrementalSolver::reset() {
  warm_ok_ = false;
  has_state_ = false;
}

Solution IncrementalSolver::cold(const Matrix& a, const Vec& b, const Vec& c,
                                 const char* fallback_reason) {
  if (fallback_reason != nullptr) record_fallback(fallback_reason);
  obs::Registry& reg = obs::global();
  reg.counter("lp.solves").inc();
  obs::ScopedTimer timer(reg, "lp.seconds");
  has_state_ = true;
  warm_ok_ = false;
  if (a.rows() == 0) return solve_empty(a.cols(), c, opts_);
  if (!tab_) tab_ = std::make_unique<Tableau>();
  tab_->init(a, b, c, opts_);
  Solution sol = run_cold(*tab_, b, opts_);
  record_outcome(sol, tab_->pivots());
  // Warm-eligible only from a clean optimum with the full row set intact
  // (a basis over deleted redundant rows cannot be refactorized against
  // the next problem's full-height columns).
  warm_ok_ = sol.status == Status::kOptimal && !tab_->rows_dropped();
  return sol;
}

Solution IncrementalSolver::solve(const Matrix& a, const Vec& b,
                                  const Vec& c) {
  check_shapes(a, b, c);
  return cold(a, b, c, nullptr);
}

Solution IncrementalSolver::resolve(const Matrix& a, const Vec& b,
                                    const Vec& c) {
  check_shapes(a, b, c);
  // A fresh solver has nothing to reuse: plain cold prime, not a miss.
  if (!has_state_) return cold(a, b, c, nullptr);
  obs::Registry& reg = obs::global();
  reg.counter("lp.warm.attempts").inc();
  if (!warm_ok_) return cold(a, b, c, "not_warm");
  if (a.rows() != tab_->rows() || a.cols() != tab_->cols() ||
      a.rows() == 0) {
    return cold(a, b, c, "dim_change");
  }

  obs::ScopedTimer timer(reg, "lp.seconds");
  reg.counter("lp.warm.refactors").inc();
  std::vector<std::size_t> basis = tab_->basis();
  if (!tab_->init_from_basis(a, b, c, basis, opts_)) {
    return cold(a, b, c, "singular_basis");
  }
  // The reused basis can lose either feasibility through the swap; pick
  // the finishing method by which one survived. Primal feasibility: all
  // basic values >= -tol. Dual feasibility: all reduced costs >= -tol.
  bool primal_ok = true;
  for (std::size_t i = 0; i < tab_->rows() && primal_ok; ++i) {
    if (tab_->rhs(i) < -opts_.tol * 10.0) primal_ok = false;
  }
  bool dual_ok = true;
  for (std::size_t j = 0; j < tab_->cols() && dual_ok; ++j) {
    if (tab_->cost2()[j] < -opts_.tol * 10.0) dual_ok = false;
  }

  const std::size_t pivots_before = tab_->pivots();
  Status st;
  if (primal_ok) {
    st = tab_->run_phase(tab_->cost2(), /*allow_artificials=*/false);
  } else if (dual_ok) {
    st = tab_->run_dual();
  } else {
    return cold(a, b, c, "basis_infeasible");
  }
  const std::size_t warm_pivots = tab_->pivots() - pivots_before;
  reg.counter("lp.warm.dual_pivots").inc(warm_pivots);
  if (st == Status::kIterLimit) return cold(a, b, c, "iter_limit");
  reg.counter("lp.warm.hits").inc();
  Solution sol;
  sol.status = st;
  if (st == Status::kOptimal) {
    sol.objective = tab_->phase2_objective();
    sol.x = tab_->extract_x();
  }
  // Optimal leaves a dual-feasible optimum; a dual-simplex infeasibility
  // verdict also leaves a dual-feasible tableau. Unbounded does not.
  warm_ok_ = st == Status::kOptimal || st == Status::kInfeasible;
  record_outcome(sol, warm_pivots);
  return sol;
}

}  // namespace rbvc::lp
