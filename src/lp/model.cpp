#include "lp/model.h"

namespace rbvc::lp {

Model::VarId Model::add_var(double objective_coeff, bool free) {
  obj_.push_back(objective_coeff);
  free_.push_back(free);
  lowered_.valid = false;
  return obj_.size() - 1;
}

Model::VarId Model::add_vars(std::size_t count, double objective_coeff,
                             bool free) {
  RBVC_REQUIRE(count > 0, "add_vars: count must be positive");
  const VarId first = obj_.size();
  for (std::size_t i = 0; i < count; ++i) add_var(objective_coeff, free);
  return first;
}

void Model::add_constraint(const std::vector<Term>& terms, Rel rel,
                           double rhs) {
  for (const Term& t : terms) {
    RBVC_REQUIRE(t.var < obj_.size(), "add_constraint: unknown variable");
  }
  rows_.push_back(terms);
  rels_.push_back(rel);
  rhs_.push_back(rhs);
  lowered_.valid = false;
}

void Model::set_objective_coeff(VarId v, double c) {
  RBVC_REQUIRE(v < obj_.size(), "set_objective_coeff: unknown variable");
  obj_[v] = c;
  lowered_.valid = false;
}

const Model::Lowered& Model::lower() const {
  if (lowered_.valid) return lowered_;
  // Column layout: for each model variable, one standard column (x >= 0) or
  // two (x+ and x-) when free; then one slack/surplus column per inequality.
  const std::size_t nv = obj_.size();
  lowered_.col_of.assign(nv, 0);
  lowered_.neg_col_of.assign(nv, 0);
  std::size_t ncols = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    lowered_.col_of[v] = ncols++;
    if (free_[v]) lowered_.neg_col_of[v] = ncols++;
  }
  std::size_t n_slack = 0;
  for (Rel r : rels_) {
    if (r != Rel::kEq) ++n_slack;
  }
  const std::size_t total = ncols + n_slack;
  const std::size_t m = rows_.size();

  lowered_.a = Matrix(m, total);
  lowered_.b = rhs_;
  lowered_.c.assign(total, 0.0);
  const double obj_sign = (sense_ == Sense::kMinimize) ? 1.0 : -1.0;
  for (std::size_t v = 0; v < nv; ++v) {
    lowered_.c[lowered_.col_of[v]] = obj_sign * obj_[v];
    if (free_[v]) lowered_.c[lowered_.neg_col_of[v]] = -obj_sign * obj_[v];
  }
  std::size_t slack = ncols;
  for (std::size_t i = 0; i < m; ++i) {
    for (const Term& t : rows_[i]) {
      lowered_.a(i, lowered_.col_of[t.var]) += t.coeff;
      if (free_[t.var]) lowered_.a(i, lowered_.neg_col_of[t.var]) -= t.coeff;
    }
    if (rels_[i] == Rel::kLe) {
      lowered_.a(i, slack++) = 1.0;
    } else if (rels_[i] == Rel::kGe) {
      lowered_.a(i, slack++) = -1.0;
    }
  }
  lowered_.valid = true;
  return lowered_;
}

Solution Model::translate_back(const Solution& raw) const {
  if (raw.status != Status::kOptimal) return raw;
  const double obj_sign = (sense_ == Sense::kMinimize) ? 1.0 : -1.0;
  const std::size_t nv = obj_.size();
  Solution out;
  out.status = Status::kOptimal;
  out.objective = obj_sign * raw.objective;
  out.x.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    out.x[v] = raw.x[lowered_.col_of[v]];
    if (free_[v]) out.x[v] -= raw.x[lowered_.neg_col_of[v]];
  }
  return out;
}

bool Model::satisfies(const Vec& x, double eps) const {
  RBVC_REQUIRE(x.size() == obj_.size(), "satisfies: one value per variable");
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (!free_[v] && x[v] < -eps) return false;
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    double lhs = 0.0;
    for (const Term& t : rows_[i]) lhs += t.coeff * x[t.var];
    if ((rels_[i] != Rel::kGe && lhs > rhs_[i] + eps) ||
        (rels_[i] != Rel::kLe && lhs < rhs_[i] - eps)) {
      return false;
    }
  }
  return true;
}

Solution Model::solve(const SimplexOptions& opts) const {
  const Lowered& lo = lower();
  return translate_back(solve_standard(lo.a, lo.b, lo.c, opts));
}

}  // namespace rbvc::lp
