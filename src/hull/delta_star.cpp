#include "hull/delta_star.h"

#include <cmath>

#include "geometry/hull.h"
#include "linalg/qr.h"
#include "obs/metrics.h"
#include "opt/outer_approx.h"

namespace rbvc {

namespace {

const char* method_label(DeltaStarResult::Method m) {
  switch (m) {
    case DeltaStarResult::Method::kGammaNonempty:
      return "gamma_nonempty";
    case DeltaStarResult::Method::kSimplexInradius:
      return "simplex_inradius";
    case DeltaStarResult::Method::kNumerical:
      return "numerical";
  }
  return "unknown";
}

void record_call(const DeltaStarResult& out) {
  obs::Registry& reg = obs::global();
  reg.counter("geom.delta_star.calls").inc();
  reg.counter(std::string("geom.delta_star.method.") +
              method_label(out.method))
      .inc();
}

// Once per call: by-name lookups take the registry mutex.
void record_cut_work(const OuterApproxResult& oa) {
  obs::Registry& reg = obs::global();
  reg.counter("geom.delta_star.cut_rounds").inc(oa.rounds);
  reg.counter("geom.delta_star.cuts").inc(oa.cuts);
  if (!oa.closed) reg.counter("geom.delta_star.gap_open").inc();
  if (oa.rejected > 0) {
    reg.counter("geom.delta_star.master_rejected").inc(oa.rejected);
  }
}

// Isometric coordinates of a point set within its own affine span
// (translate by the last point, express in an orthonormal basis). Valid for
// the L2 paths only: orthogonal projection preserves Euclidean distances
// inside the span but not other Lp norms.
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

SpanFrame make_frame(const std::vector<Vec>& s, double tol) {
  SpanFrame fr;
  fr.origin = s.back();
  Vec tmp;
  std::vector<Vec> diffs;
  diffs.reserve(s.size() - 1);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    sub_into(s[i], s.back(), tmp);
    diffs.push_back(tmp);
  }
  fr.basis = orthonormal_basis(diffs, tol);
  fr.coords.reserve(s.size());
  for (const Vec& v : s) {
    sub_into(v, fr.origin, tmp);
    fr.coords.push_back(coords_in_basis(fr.basis, tmp));
  }
  return fr;
}

}  // namespace

DeltaStarResult delta_star_2(const std::vector<Vec>& s, std::size_t f,
                             double tol, const MinimaxOptions& /*opts*/) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_2: need 1 <= f < |S|");
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  DeltaStarResult out;

  const SpanFrame fr = make_frame(s, tol);
  const std::size_t dprime = fr.basis.size();
  if (dprime == 0) {  // all inputs identical
    out.value = 0.0;
    out.point = s.front();
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }

  // Case 1: the classic safe area Gamma(S) is already non-empty.
  if (auto g = hull_intersection_point(drop_f_views(fr.coords, f), tol)) {
    out.value = 0.0;
    out.point = fr.lift(*g);
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }

  // Case 2: Lemma 13 -- for f = 1 and a full simplex in the span, delta* is
  // exactly the inradius and the incenter is the canonical witness.
  if (f == 1 && s.size() == dprime + 1) {
    if (auto geom = SimplexGeometry::build(fr.coords, tol)) {
      out.value = geom->inradius();
      out.lower = out.value;
      out.point = fr.lift(geom->incenter());
      out.exact = true;
      out.method = DeltaStarResult::Method::kSimplexInradius;
      record_call(out);
      return out;
    }
  }

  // Case 3: certified min-max over the drop-f hulls, inside the span.
  OuterApproxResult oa = certified_min_max_hull_distance(
      drop_f_views(fr.coords, f), mean(fr.coords), tol);
  out.value = oa.upper;
  out.lower = oa.lower;
  out.point = fr.lift(oa.point);
  out.exact = oa.closed;
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  record_cut_work(oa);
  return out;
}

DeltaStarResult delta_star_linear(const std::vector<Vec>& s, std::size_t f,
                                  double p, double tol) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_linear: need 1 <= f < |S|");
  RBVC_REQUIRE(p == 1.0 || p >= kInfNorm,
               "delta_star_linear: p must be 1 or inf");
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  DeltaStarResult out;
  if (auto g = gamma_point(s, f, tol)) {
    out.value = 0.0;
    out.point = *g;
    out.exact = true;
    out.method = DeltaStarResult::Method::kGammaNonempty;
    record_call(out);
    return out;
  }
  // Gamma_(delta,p)(S) is polyhedral in (x, delta) for p in {1, inf}, so
  // delta* is the optimum of one LP with delta as a column.
  auto lp = detail::solve_gamma_delta_lp(s, f, p, std::nullopt, tol);
  out.value = lp->delta;
  out.lower = out.value;
  out.point = std::move(lp->x);
  out.exact = true;
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  return out;
}

DeltaStarResult delta_star_p(const std::vector<Vec>& s, std::size_t f,
                             double p, double tol) {
  RBVC_REQUIRE(f >= 1 && f < s.size(), "delta_star_p: need 1 <= f < |S|");
  RBVC_REQUIRE(p >= 1.0, "delta_star_p: p must be >= 1");
  if (p == 2.0) return delta_star_2(s, f, tol);
  if (p == 1.0 || p >= kInfNorm) return delta_star_linear(s, f, p, tol);
  obs::ScopedTimer timer(obs::global(), "geom.delta_star.seconds");
  // Gamma(S) does not depend on p, and delta*_2's witness with each hull's
  // Wolfe weights is the start: for p >= 2 it already attains delta*_2's
  // value, since ||.||_p <= ||.||_2.
  DeltaStarResult out = delta_star_2(s, f, tol);
  if (out.method == DeltaStarResult::Method::kGammaNonempty) {
    record_call(out);
    return out;
  }
  const std::vector<PointView> views = drop_f_views(s, f);
  std::vector<Vec> coeffs;
  coeffs.reserve(views.size());
  for (const PointView& v : views) {
    coeffs.push_back(project_to_hull(out.point, v, tol).coeffs);
  }
  // Lp norms are not preserved by orthogonal projection, so the loop runs in
  // the ambient space.
  OuterApproxResult oa = certified_min_max_hull_distance_p(
      views, p, std::move(out.point), std::move(coeffs), tol);
  out.value = oa.upper;
  out.lower = oa.lower;
  out.point = std::move(oa.point);
  out.exact = oa.closed;
  out.method = DeltaStarResult::Method::kNumerical;
  record_call(out);
  record_cut_work(oa);
  return out;
}

}  // namespace rbvc
