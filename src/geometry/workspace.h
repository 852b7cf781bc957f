// Per-episode scratch state for the geometry hot path.
//
// A GeometryWorkspace bundles everything the delta*/Gamma/hull kernels want
// to reuse across calls instead of reallocating per query:
//
//   * the drop-f combination index lists (pure function of (n, f), memoized)
//     and PointView subset enumeration built on them,
//   * an IncrementalSolver slot for subset-swap warm starts,
//   * SpanFrame / vector scratch buffers.
//
// Determinism contract: the workspace never carries solver state across
// public geometry entry points -- each entry point resets the solver it uses
// before the first solve, so results are a pure function of the call's
// arguments (required by the verification-by-recomputation paths and the
// RBVC_JOBS byte-identity contract; see DESIGN.md "LP warm starts").
//
// Workspaces are not thread-safe; use one per thread. `local()` returns a
// thread-local instance for callers without a better scope to hang one on.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "geometry/point_view.h"
#include "lp/simplex.h"

namespace rbvc {

/// Isometric coordinates of a point set within its own affine span
/// (translate by the last point, express in an orthonormal basis). Valid for
/// the L2 paths only: orthogonal projection preserves Euclidean distances
/// inside the span but not other Lp norms.
struct SpanFrame {
  Vec origin;
  std::vector<Vec> basis;   // orthonormal
  std::vector<Vec> coords;  // projected points, dimension basis.size()

  Vec lift(const Vec& c) const {
    Vec x = origin;
    for (std::size_t j = 0; j < basis.size(); ++j) axpy(c[j], basis[j], x);
    return x;
  }
};

class GeometryWorkspace {
 public:
  GeometryWorkspace();
  GeometryWorkspace(const GeometryWorkspace&) = delete;
  GeometryWorkspace& operator=(const GeometryWorkspace&) = delete;

  /// The size-(n-f) combination index lists over {0..n-1} (the T's of the
  /// Gamma/Psi operators), memoized per (n, f). The returned reference is
  /// stable for the workspace's lifetime.
  const std::vector<std::vector<std::size_t>>& drop_f_indices(std::size_t n,
                                                              std::size_t f);

  /// PointViews over the drop-f subsets of `s` (no point copies). The views
  /// borrow `s` and the memoized index lists; they are invalidated by
  /// mutating or destroying `s`.
  std::vector<PointView> drop_f_views(const std::vector<Vec>& s,
                                      std::size_t f);

  /// Warm-start solver slot (subset-swap reuse in gamma_excess).
  lp::IncrementalSolver& solver() { return solver_; }

  /// Reusable SpanFrame storage (delta_star_2's span projection).
  SpanFrame& span_frame() { return frame_; }

  /// Reusable general-purpose vector scratch (mean buffers etc).
  Vec& scratch_vec() { return scratch_; }

  /// A thread-local workspace for callers without a better-scoped one.
  static GeometryWorkspace& local();

 private:
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::vector<std::size_t>>>
      subsets_;
  lp::IncrementalSolver solver_;
  SpanFrame frame_;
  Vec scratch_;
};

}  // namespace rbvc
