// The paper's relaxed convex hulls (Sec. 5):
//
//   H_k(S)       = { u : g_D(u) in H(g_D(S)) for every size-k index set D }
//   H_(delta,p)(S) = { u : dist_p(u, H(S)) <= delta }
//
// plus the containment lemmas' membership oracles.
#pragma once

#include <optional>
#include <vector>

#include "geometry/distance.h"
#include "geometry/projection.h"
#include "lp/model.h"

namespace rbvc {

/// True iff u lies in the k-relaxed hull H_k(S) (Definition 6).
bool in_k_relaxed_hull(const Vec& u, const std::vector<Vec>& s, std::size_t k,
                       double tol = kTol);

/// True iff u lies in the (delta,p)-relaxed hull H_(delta,p)(S)
/// (Definition 9). p in {1, 2} or rbvc::kInfNorm are exact; other p >= 1
/// compare the upper end of a certified distance interval (distance.h).
bool in_delta_p_hull(const Vec& u, const std::vector<Vec>& s, double delta,
                     double p, double tol = kTol);

/// dist_p(u, H(S)) -- convenience re-export used throughout the consensus
/// layer (0 when u is inside the hull).
double hull_distance(const Vec& u, PointView s, double p, double tol = kTol);

/// All sub-multisets of `s` of size |s| - f, as index combinations into `s`
/// (the T's of the paper's Gamma and Psi operators). Requires f < |s|.
std::vector<std::vector<std::size_t>> subsets_minus_f(std::size_t n,
                                                      std::size_t f);

/// Index views over the subsets_minus_f point sets -- no point copies. The
/// views borrow `s` and a thread-local memo of the index lists, a pure
/// function of (|s|, f) that lives as long as the thread.
std::vector<PointView> drop_f_views(const std::vector<Vec>& s, std::size_t f);

/// Materializes the point sets for subsets_minus_f (copying; prefer
/// drop_f_views on hot paths).
std::vector<std::vector<Vec>> drop_f_subsets(const std::vector<Vec>& s,
                                             std::size_t f);

namespace detail {

/// Adds "the point at model variables u0..u0+d-1 lies in H_(delta,p)(T)"
/// for p in {1, inf}: the one LP encoding behind every Gamma_(delta,p) and
/// (delta,p) Psi query. Columns: lambda (|T|), s+ (d), s- (d). Rows: d
/// residual rows u - sum_j lambda_j T_j - s+ + s- = 0, then
/// sum_j lambda_j = 1, then the norm rows -- sum_r (s+_r + s-_r) for p = 1,
/// s+_r + s-_r per coordinate for p = inf -- each <= delta, or
/// <= delta + x[delta_col] when delta is itself a model column.
void add_delta_p_membership(lp::Model& m, lp::Model::VarId u0, PointView t,
                            double p, double delta,
                            std::optional<lp::Model::VarId> delta_col = {});

}  // namespace detail

}  // namespace rbvc
