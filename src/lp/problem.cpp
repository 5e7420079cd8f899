#include "lp/problem.h"

namespace faircache::lp {

VarId LpProblem::add_variable(double lower, double upper) {
  FAIRCACHE_CHECK(lower <= upper, "variable bounds crossed");
  FAIRCACHE_CHECK(lower != kInfinity && upper != -kInfinity,
                  "degenerate variable bounds");
  const VarId id = num_variables();
  variables_.push_back(Variable{lower, upper, false});
  return id;
}

VarId LpProblem::add_integer_variable(double lower, double upper) {
  const VarId id = add_variable(lower, upper);
  variables_[static_cast<std::size_t>(id)].is_integer = true;
  return id;
}

VarId LpProblem::add_binary_variable() {
  return add_integer_variable(0.0, 1.0);
}

void LpProblem::add_constraint(LinearExpr expr, Relation relation,
                               double rhs) {
  for (const auto& term : expr.terms()) {
    FAIRCACHE_CHECK(term.var < num_variables(),
                    "constraint references unknown variable");
  }
  constraints_.push_back(Constraint{std::move(expr), relation, rhs});
}

void LpProblem::set_objective(Sense sense, LinearExpr expr) {
  for (const auto& term : expr.terms()) {
    FAIRCACHE_CHECK(term.var < num_variables(),
                    "objective references unknown variable");
  }
  sense_ = sense;
  objective_ = std::move(expr);
}

void LpProblem::set_bounds(VarId v, double lower, double upper) {
  FAIRCACHE_CHECK(v >= 0 && v < num_variables(), "variable out of range");
  FAIRCACHE_CHECK(lower <= upper, "variable bounds crossed");
  auto& var = variables_[static_cast<std::size_t>(v)];
  var.lower = lower;
  var.upper = upper;
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  FAIRCACHE_CHECK(static_cast<int>(x.size()) == num_variables(),
                  "point dimension mismatch");
  double value = 0.0;
  for (const auto& term : objective_.terms()) {
    value += term.coeff * x[static_cast<std::size_t>(term.var)];
  }
  return value;
}

bool LpProblem::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (VarId v = 0; v < num_variables(); ++v) {
    const auto& var = variables_[static_cast<std::size_t>(v)];
    const double value = x[static_cast<std::size_t>(v)];
    if (value < var.lower - tol || value > var.upper + tol) return false;
  }
  for (const auto& constraint : constraints_) {
    double lhs = 0.0;
    for (const auto& term : constraint.expr.terms()) {
      lhs += term.coeff * x[static_cast<std::size_t>(term.var)];
    }
    switch (constraint.relation) {
      case Relation::kLessEqual:
        if (lhs > constraint.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < constraint.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (lhs < constraint.rhs - tol || lhs > constraint.rhs + tol) {
          return false;
        }
        break;
    }
  }
  return true;
}

}  // namespace faircache::lp
