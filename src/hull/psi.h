// The Psi operators used in the paper's impossibility proofs:
//
//   Psi(Y)   = intersection over |T| = |Y|-f of H_k(T)        (Thm 3)
//   Psi^i(S) = intersection over j != i of H_k(S^j)           (Thm 4/App. B)
//
// and (delta,p) analogues (Thm 5/6, App. C). Each is a convex feasibility
// problem; we solve them exactly by LP:
//   k = 1 -> per-coordinate interval intersection (encoded as bounds)
//   k = 2 -> halfplane constraints from the 2-D hulls of every projection
//   k > 2 -> barycentric (lambda) blocks per (D, T) pair
// For (delta,p) with p in {1, inf}, membership is linear as well, with the
// same encoding as Gamma_(delta,p) (detail::add_delta_p_membership).
//
// `psi_point` answers "is the intersection non-empty (and give a witness)";
// `linf_gap` answers "how far apart are two such intersections at minimum"
// -- the quantity Appendix B/C lower-bound to break epsilon-agreement.
#pragma once

#include <optional>

#include "hull/relaxed_hull.h"
#include "lp/model.h"

namespace rbvc {

/// Describes one intersection of relaxed hulls: for every multiset in
/// `parts`, the point must lie in that multiset's relaxed hull.
struct RelaxedIntersectionSpec {
  std::vector<std::vector<Vec>> parts;  // the T's
  std::size_t k = 0;      // k-relaxed when k >= 1 (delta/p ignored)
  double delta = 0.0;     // (delta,p)-relaxed when k == 0
  double p = kInfNorm;    // must be 1 or inf for the (delta,p) LP encoding
};

/// A point in the intersection described by `spec`, or nullopt when empty.
std::optional<Vec> relaxed_intersection_point(
    const RelaxedIntersectionSpec& spec, double tol = kTol);

/// Minimum over u in A, v in B of ||u - v||_inf, where A and B are relaxed
/// intersections per the two specs (e.g. Psi^1 and Psi^2 of Appendix B).
/// Returns nullopt when either set is empty; 0 means they touch/overlap.
std::optional<double> relaxed_intersection_linf_gap(
    const RelaxedIntersectionSpec& a, const RelaxedIntersectionSpec& b,
    double tol = kTol);

/// Psi_k(Y) over the standard drop-f sub-multisets (paper Thm 3): a witness
/// point or nullopt when Psi is empty.
std::optional<Vec> psi_k_point(const std::vector<Vec>& y, std::size_t f,
                               std::size_t k, double tol = kTol);

}  // namespace rbvc
