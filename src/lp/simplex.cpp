#include "lp/simplex.h"

#include <algorithm>
#include <cmath>

namespace faircache::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

namespace {

// Pricing, ratio-test and pivot-out tolerance.
constexpr double kTolerance = 1e-9;

// Internal standard-form model: min c·x  s.t.  A x (rel) b,  x ≥ 0.
// Maps each original variable to one or two standard-form columns.
struct StandardForm {
  // Per original variable: column of the shifted variable, plus (for free
  // variables) the column of the negative part.
  struct VarMap {
    int pos_col = -1;
    int neg_col = -1;   // -1 unless the variable is free
    double shift = 0.0; // x_original = shift + x_pos − x_neg
  };

  std::vector<VarMap> var_map;
  int num_cols = 0;

  struct Row {
    std::vector<std::pair<int, double>> coeffs;  // (col, coeff)
    Relation relation;
    double rhs;
  };
  std::vector<Row> rows;
  std::vector<double> cost;  // size num_cols, minimization
  double cost_offset = 0.0;  // constant from shifts / sense flip
  bool maximize = false;
};

StandardForm build_standard_form(const LpProblem& p) {
  StandardForm sf;
  sf.maximize = p.sense() == Sense::kMaximize;
  sf.var_map.resize(static_cast<std::size_t>(p.num_variables()));

  for (VarId v = 0; v < p.num_variables(); ++v) {
    const Variable& var = p.variable(v);
    auto& vm = sf.var_map[static_cast<std::size_t>(v)];
    if (var.lower == -kInfinity) {
      // Free (or upper-bounded-only) variable: split x = x⁺ − x⁻.
      vm.pos_col = sf.num_cols++;
      vm.neg_col = sf.num_cols++;
      vm.shift = 0.0;
    } else {
      vm.pos_col = sf.num_cols++;
      vm.shift = var.lower;
    }
  }

  // Upper bounds become explicit rows over the shifted columns.
  for (VarId v = 0; v < p.num_variables(); ++v) {
    const Variable& var = p.variable(v);
    if (var.upper == kInfinity) continue;
    const auto& vm = sf.var_map[static_cast<std::size_t>(v)];
    StandardForm::Row row;
    row.coeffs.emplace_back(vm.pos_col, 1.0);
    if (vm.neg_col >= 0) row.coeffs.emplace_back(vm.neg_col, -1.0);
    row.relation = Relation::kLessEqual;
    row.rhs = var.upper - vm.shift;
    sf.rows.push_back(std::move(row));
  }

  // Original constraints, rewritten over shifted columns.
  for (const Constraint& c : p.constraints()) {
    StandardForm::Row row;
    double rhs = c.rhs;
    // Accumulate duplicate variable terms first.
    std::vector<double> dense;  // lazily sized
    for (const auto& term : c.expr.terms()) {
      if (static_cast<std::size_t>(term.var) >= dense.size()) {
        dense.resize(static_cast<std::size_t>(term.var) + 1, 0.0);
      }
      dense[static_cast<std::size_t>(term.var)] += term.coeff;
    }
    for (std::size_t v = 0; v < dense.size(); ++v) {
      const double coeff = dense[v];
      if (coeff == 0.0) continue;
      const auto& vm = sf.var_map[v];
      row.coeffs.emplace_back(vm.pos_col, coeff);
      if (vm.neg_col >= 0) row.coeffs.emplace_back(vm.neg_col, -coeff);
      rhs -= coeff * vm.shift;
    }
    row.relation = c.relation;
    row.rhs = rhs;
    sf.rows.push_back(std::move(row));
  }

  // Objective (minimization form).
  sf.cost.assign(static_cast<std::size_t>(sf.num_cols), 0.0);
  const double sign = sf.maximize ? -1.0 : 1.0;
  std::vector<double> dense;
  for (const auto& term : p.objective().terms()) {
    if (static_cast<std::size_t>(term.var) >= dense.size()) {
      dense.resize(static_cast<std::size_t>(term.var) + 1, 0.0);
    }
    dense[static_cast<std::size_t>(term.var)] += term.coeff;
  }
  for (std::size_t v = 0; v < dense.size(); ++v) {
    const double coeff = sign * dense[v];
    if (coeff == 0.0) continue;
    const auto& vm = sf.var_map[v];
    sf.cost[static_cast<std::size_t>(vm.pos_col)] += coeff;
    if (vm.neg_col >= 0) sf.cost[static_cast<std::size_t>(vm.neg_col)] -= coeff;
    sf.cost_offset += coeff * vm.shift;
  }
  return sf;
}

// Full-tableau simplex working state.
class Tableau {
 public:
  explicit Tableau(const StandardForm& sf) : num_structural_(sf.num_cols) {
    const int m = static_cast<int>(sf.rows.size());

    // Count auxiliary columns.
    int num_slack = 0;
    int num_artificial = 0;
    for (const auto& row : sf.rows) {
      const double rhs = row.rhs;
      Relation rel = row.relation;
      // Normalizing to rhs ≥ 0 flips ≤/≥.
      if (rhs < 0) {
        rel = rel == Relation::kLessEqual   ? Relation::kGreaterEqual
              : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                               : Relation::kEqual;
      }
      if (rel == Relation::kLessEqual) {
        ++num_slack;
      } else if (rel == Relation::kGreaterEqual) {
        ++num_slack;
        ++num_artificial;
      } else {
        ++num_artificial;
      }
    }

    slack_begin_ = num_structural_;
    artificial_begin_ = slack_begin_ + num_slack;
    num_cols_ = artificial_begin_ + num_artificial;

    rows_.assign(static_cast<std::size_t>(m),
                 std::vector<double>(static_cast<std::size_t>(num_cols_) + 1,
                                     0.0));
    basis_.assign(static_cast<std::size_t>(m), -1);

    int next_slack = slack_begin_;
    int next_artificial = artificial_begin_;
    for (int r = 0; r < m; ++r) {
      const auto& src = sf.rows[static_cast<std::size_t>(r)];
      auto& row = rows_[static_cast<std::size_t>(r)];
      const double flip = src.rhs < 0 ? -1.0 : 1.0;
      for (const auto& [col, coeff] : src.coeffs) {
        row[static_cast<std::size_t>(col)] += flip * coeff;
      }
      row.back() = flip * src.rhs;

      Relation rel = src.relation;
      if (flip < 0) {
        rel = rel == Relation::kLessEqual   ? Relation::kGreaterEqual
              : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                               : Relation::kEqual;
      }
      if (rel == Relation::kLessEqual) {
        row[static_cast<std::size_t>(next_slack)] = 1.0;
        basis_[static_cast<std::size_t>(r)] = next_slack++;
      } else if (rel == Relation::kGreaterEqual) {
        row[static_cast<std::size_t>(next_slack)] = -1.0;
        ++next_slack;
        row[static_cast<std::size_t>(next_artificial)] = 1.0;
        basis_[static_cast<std::size_t>(r)] = next_artificial++;
      } else {
        row[static_cast<std::size_t>(next_artificial)] = 1.0;
        basis_[static_cast<std::size_t>(r)] = next_artificial++;
      }
    }
  }

  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_cols() const { return num_cols_; }
  int artificial_begin() const { return artificial_begin_; }
  const std::vector<int>& basis() const { return basis_; }

  // Builds the reduced-cost row for costs `c` (size num_cols_, padded with
  // zeros for auxiliary columns): z-row = c − c_B·B⁻¹A, offset = −c_B·b.
  std::vector<double> reduced_costs(const std::vector<double>& c,
                                    double* objective) const {
    std::vector<double> z(static_cast<std::size_t>(num_cols_) + 1, 0.0);
    std::copy(c.begin(), c.end(), z.begin());
    for (int r = 0; r < num_rows(); ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      const double cb = b < static_cast<int>(c.size())
                            ? c[static_cast<std::size_t>(b)]
                            : 0.0;
      if (cb == 0.0) continue;
      const auto& row = rows_[static_cast<std::size_t>(r)];
      for (std::size_t j = 0; j <= static_cast<std::size_t>(num_cols_); ++j) {
        z[j] -= cb * row[j];
      }
    }
    if (objective != nullptr) *objective = -z.back();
    return z;
  }

  // Runs the simplex loop minimizing cost row `z` (updated in place).
  // `allow_cols` limits entering columns to indexes < allow_cols.
  SolveStatus iterate(std::vector<double>& z, int allow_cols,
                      int* iterations) {
    const int m = num_rows();
    const int max_iter = 200 + 50 * (m + num_cols_);
    const int bland_at = max_iter / 2;

    for (int iter = 0; iter < max_iter; ++iter) {
      ++*iterations;
      const bool bland = iter >= bland_at;

      // Pricing.
      int entering = -1;
      double best = -kTolerance;
      for (int j = 0; j < allow_cols; ++j) {
        const double rc = z[static_cast<std::size_t>(j)];
        if (rc < -kTolerance) {
          if (bland) {
            entering = j;
            break;
          }
          if (rc < best) {
            best = rc;
            entering = j;
          }
        }
      }
      if (entering == -1) return SolveStatus::kOptimal;

      // Ratio test (Bland tie-break on basis variable index).
      int leaving = -1;
      double best_ratio = 0.0;
      for (int r = 0; r < m; ++r) {
        const auto& row = rows_[static_cast<std::size_t>(r)];
        const double a = row[static_cast<std::size_t>(entering)];
        if (a <= kTolerance) continue;
        const double ratio = row.back() / a;
        if (leaving == -1 || ratio < best_ratio - kTolerance ||
            (std::abs(ratio - best_ratio) <= kTolerance &&
             basis_[static_cast<std::size_t>(r)] <
                 basis_[static_cast<std::size_t>(leaving)])) {
          leaving = r;
          best_ratio = ratio;
        }
      }
      if (leaving == -1) return SolveStatus::kUnbounded;

      pivot(leaving, entering, z);
    }
    return SolveStatus::kIterationLimit;
  }

  void pivot(int leaving_row, int entering_col, std::vector<double>& z) {
    auto& prow = rows_[static_cast<std::size_t>(leaving_row)];
    const double pivot_value = prow[static_cast<std::size_t>(entering_col)];
    FAIRCACHE_DCHECK(std::abs(pivot_value) > 0.0, "zero pivot");
    const double inv = 1.0 / pivot_value;
    for (auto& value : prow) value *= inv;
    prow[static_cast<std::size_t>(entering_col)] = 1.0;  // kill round-off

    for (int r = 0; r < num_rows(); ++r) {
      if (r == leaving_row) continue;
      auto& row = rows_[static_cast<std::size_t>(r)];
      const double factor = row[static_cast<std::size_t>(entering_col)];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] -= factor * prow[j];
      }
      row[static_cast<std::size_t>(entering_col)] = 0.0;
    }
    const double zfactor = z[static_cast<std::size_t>(entering_col)];
    if (zfactor != 0.0) {
      for (std::size_t j = 0; j < z.size(); ++j) {
        z[j] -= zfactor * prow[j];
      }
      z[static_cast<std::size_t>(entering_col)] = 0.0;
    }
    basis_[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  // Pivot basic artificial variables out of the basis (post phase 1);
  // redundant rows (all-zero) are left in place, harmlessly pinned to their
  // artificial at value 0 which is then excluded from entering.
  void expel_artificials(std::vector<double>& z) {
    for (int r = 0; r < num_rows(); ++r) {
      if (basis_[static_cast<std::size_t>(r)] < artificial_begin_) continue;
      const auto& row = rows_[static_cast<std::size_t>(r)];
      int col = -1;
      for (int j = 0; j < artificial_begin_; ++j) {
        if (std::abs(row[static_cast<std::size_t>(j)]) > kTolerance) {
          col = j;
          break;
        }
      }
      if (col >= 0) pivot(r, col, z);
    }
  }

  // Value of standard-form column `col` in the current basic solution.
  double column_value(int col) const {
    for (int r = 0; r < num_rows(); ++r) {
      if (basis_[static_cast<std::size_t>(r)] == col) {
        return rows_[static_cast<std::size_t>(r)].back();
      }
    }
    return 0.0;
  }

 private:
  int num_structural_;
  int slack_begin_ = 0;
  int artificial_begin_ = 0;
  int num_cols_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution SimplexSolver::solve(const LpProblem& problem) const {
  LpSolution solution;
  const StandardForm sf = build_standard_form(problem);
  Tableau tableau(sf);

  // Phase 1: minimize the sum of artificials.
  double phase1_obj = 0.0;
  {
    std::vector<double> phase1_cost(
        static_cast<std::size_t>(tableau.num_cols()), 0.0);
    for (int j = tableau.artificial_begin(); j < tableau.num_cols(); ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    std::vector<double> z = tableau.reduced_costs(phase1_cost, &phase1_obj);
    const SolveStatus status =
        tableau.iterate(z, tableau.artificial_begin(), &solution.iterations);
    if (status == SolveStatus::kIterationLimit) {
      solution.status = status;
      return solution;
    }
    // Unbounded cannot occur in phase 1 (objective bounded below by 0).
    double obj = 0.0;
    tableau.reduced_costs(phase1_cost, &obj);
    if (obj > 1e-6) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    tableau.expel_artificials(z);
  }

  // Phase 2: the real objective over non-artificial columns.
  {
    std::vector<double> phase2_cost(
        static_cast<std::size_t>(tableau.num_cols()), 0.0);
    std::copy(sf.cost.begin(), sf.cost.end(), phase2_cost.begin());
    double obj = 0.0;
    std::vector<double> z = tableau.reduced_costs(phase2_cost, &obj);
    const SolveStatus status =
        tableau.iterate(z, tableau.artificial_begin(), &solution.iterations);
    if (status != SolveStatus::kOptimal) {
      solution.status = status;
      return solution;
    }
    tableau.reduced_costs(phase2_cost, &obj);

    solution.status = SolveStatus::kOptimal;
    const double min_objective = obj + sf.cost_offset;
    solution.objective = sf.maximize ? -min_objective : min_objective;
  }

  // Recover original variable values.
  solution.values.resize(static_cast<std::size_t>(problem.num_variables()));
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    const auto& vm = sf.var_map[static_cast<std::size_t>(v)];
    double value = vm.shift + tableau.column_value(vm.pos_col);
    if (vm.neg_col >= 0) value -= tableau.column_value(vm.neg_col);
    solution.values[static_cast<std::size_t>(v)] = value;
  }
  return solution;
}

}  // namespace faircache::lp
