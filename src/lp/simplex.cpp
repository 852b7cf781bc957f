#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

namespace {

// Stalled (non-improving) iterations before pricing switches to Bland's
// rule, which cannot cycle.
constexpr std::size_t kBlandAfter = 2'000;

// Dense tableau state. Rows are constraint rows; two separate reduced-cost
// rows (phase 1 and phase 2) are updated through every pivot so the phase
// switch is free.
class Tableau {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void init(const Matrix& a, const Vec& b, const Vec& c,
            const SimplexOptions& opts) {
    opts_ = opts;
    n_ = a.cols();
    m_ = a.rows();
    total_ = n_ + m_;
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

  // Runs the phase using the given cost row; returns the terminating status
  // (kOptimal means the phase's optimum was reached).
  Status run_phase(std::vector<double>& cost, bool allow_artificials) {
    std::size_t stalled = 0;
    double last_obj = -cost[total_];
    for (std::size_t iter = 0; iter < opts_.max_iters; ++iter) {
      const bool bland = stalled >= kBlandAfter;
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

  double phase1_objective() const { return -cost1_[total_]; }
  double phase2_objective() const { return -cost2_[total_]; }
  std::size_t pivots() const { return pivots_; }
  std::vector<double>& cost1() { return cost1_; }
  std::vector<double>& cost2() { return cost2_; }

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
  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> basis_;
  std::vector<double> cost1_, cost2_;
};

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
Solution run_two_phase(Tableau& t, const Vec& b, const SimplexOptions& opts) {
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

}  // namespace

Solution solve_standard(const Matrix& a, const Vec& b, const Vec& c,
                        const SimplexOptions& opts) {
  RBVC_REQUIRE(a.rows() == b.size(), "simplex: A/b shape mismatch");
  RBVC_REQUIRE(a.cols() == c.size(), "simplex: A/c shape mismatch");
  obs::Registry& reg = obs::global();
  reg.counter("lp.solves").inc();
  obs::ScopedTimer timer(reg, "lp.seconds");
  if (a.rows() == 0) return solve_empty(a.cols(), c, opts);

  Tableau t;
  t.init(a, b, c, opts);
  Solution sol = run_two_phase(t, b, opts);
  record_outcome(sol, t.pivots());
  return sol;
}

}  // namespace rbvc::lp
