#pragma once

// Linear-program model container. This (plus lp/simplex.h and the mip/
// branch-and-bound layer) is the in-repo replacement for the PuLP + CBC
// stack the paper used for its brute-force optimum: nothing external is
// available offline, so the solver substrate is built from scratch.

#include <limits>
#include <vector>

#include "util/check.h"

namespace faircache::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLessEqual, kGreaterEqual, kEqual };
enum class Sense { kMinimize, kMaximize };

using VarId = int;

// Sparse linear expression Σ coeff · var.
class LinearExpr {
 public:
  LinearExpr() = default;

  LinearExpr& add(VarId var, double coeff) {
    FAIRCACHE_CHECK(var >= 0, "negative variable id");
    if (coeff != 0.0) terms_.push_back({var, coeff});
    return *this;
  }

  struct Term {
    VarId var;
    double coeff;
  };
  const std::vector<Term>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

 private:
  std::vector<Term> terms_;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  bool is_integer = false;  // honoured by the MIP layer, ignored by pure LP
};

struct Constraint {
  LinearExpr expr;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

class LpProblem {
 public:
  VarId add_variable(double lower = 0.0, double upper = kInfinity);
  VarId add_integer_variable(double lower, double upper);
  VarId add_binary_variable();

  void add_constraint(LinearExpr expr, Relation relation, double rhs);

  void set_objective(Sense sense, LinearExpr expr);

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }

  const Variable& variable(VarId v) const {
    FAIRCACHE_CHECK(v >= 0 && v < num_variables(), "variable out of range");
    return variables_[static_cast<std::size_t>(v)];
  }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  Sense sense() const { return sense_; }
  const LinearExpr& objective() const { return objective_; }

  // Tightens a variable's bounds (used by branch and bound).
  void set_bounds(VarId v, double lower, double upper);

  // Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  // Checks primal feasibility of a point within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  Sense sense_ = Sense::kMinimize;
  LinearExpr objective_;
};

}  // namespace faircache::lp
