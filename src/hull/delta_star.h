// delta*(S): the smallest relaxation for which Gamma_(delta,p)(S) is
// non-empty -- the quantity ALGO (paper Sec. 9) minimizes in its Step 2,
// and the quantity Theorems 8, 9, 12, 14 and Conjectures 1-3 upper-bound.
//
// Computation strategy (the L2 cases first project S isometrically onto the
// affine span of its points, per the paper's Case II arguments):
//   1. Gamma(S) non-empty (LP)            -> delta* = 0, exact.
//   2. p = 2, f = 1 and S a full simplex  -> delta* = inradius (Lemma 13),
//      in its span                           point = incenter, exact.
//   3. otherwise, p in {1, inf}           -> one LP with delta as a column
//      (gamma.h), exact to the simplex tolerance.
//   4. otherwise, p = 2                   -> cutting-plane LP in the span
//      (opt/outer_approx.h): a certified [lower, upper] interval, closed
//      to tol * max(1, diam S).
//   5. otherwise (general p)              -> epigraph cutting planes in the
//      ambient space from delta*_2's witness: a certified interval.
#pragma once

#include <optional>

#include "geometry/simplex_geometry.h"
#include "hull/gamma.h"

namespace rbvc {

/// A retired minimax budget that nothing reads; it survives only in
/// AsyncAveragingProcess::Params (the repro `minimax` line) and delta_star_2.
struct MinimaxOptions {
  std::size_t iters = 4'000;
  std::size_t polish_iters = 500;
  double tol = kTol;
  double p = 2.0;
};

struct DeltaStarResult {
  double value = 0.0;  // delta*(S): the upper end of [lower, value]
  double lower = 0.0;  // certified lower bound (= value on exact paths)
  Vec point;           // deterministic witness: gamma_(value,p)(S) member
  bool exact = false;  // the interval closed (always on the LP / closed-form
                       // paths)
  enum class Method {
    kGammaNonempty,    // delta* = 0
    kSimplexInradius,  // Lemma 13 closed form (possibly in a subspace)
    kNumerical,        // cutting planes (p = 2 and general p) or the delta
                       // LP (p in {1, inf})
  } method = Method::kNumerical;
};

/// delta*_2(S) for f faults. Requires 1 <= f < |S|. Like every entry point
/// here, the result is a pure function of the arguments: no solver or
/// scratch state outlives a call. The numerical case never throws: a master
/// LP that stops short of an optimum, or the solver's round cap, returns the
/// interval found so far with exact = false. `opts` is ignored: the
/// cutting-plane solver has no iteration budget. The parameter stays so
/// callers that forward AsyncAveragingProcess::Params::minimax compile.
DeltaStarResult delta_star_2(const std::vector<Vec>& s, std::size_t f,
                             double tol = kTol,
                             const MinimaxOptions& opts = {});

/// delta*_p(S) for p = 1 or inf: the optimum of the Gamma_(delta,p) LP
/// with delta as a column, solved cold; exact. Throws numerical_error if the
/// simplex stops short of an optimum (iteration limit).
DeltaStarResult delta_star_linear(const std::vector<Vec>& s, std::size_t f,
                                  double p, double tol = kTol);

/// delta*_p(S) for p >= 1 (p = 2 and p in {1, inf} dispatch above). Other p
/// run delta_star_2 (a call of its own in the metrics), then case 5 from its
/// witness; like delta_star_2 this never throws on the numerical case.
DeltaStarResult delta_star_p(const std::vector<Vec>& s, std::size_t f,
                             double p, double tol = kTol);

}  // namespace rbvc
