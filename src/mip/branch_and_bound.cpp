#include "mip/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "lp/simplex.h"
#include "util/stopwatch.h"

namespace faircache::mip {

const char* to_string(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "optimal";
    case MipStatus::kFeasible:
      return "feasible";
    case MipStatus::kInfeasible:
      return "infeasible";
    case MipStatus::kUnbounded:
      return "unbounded";
    case MipStatus::kNoSolution:
      return "no-solution";
  }
  return "unknown";
}

namespace {

// A value within this of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;
// Prune nodes whose bound is within this of the incumbent (absolute).
constexpr double kAbsoluteGap = 1e-9;

struct Node {
  double bound;  // parent LP value (minimization sense)
  std::vector<double> lower;
  std::vector<double> upper;
  long id;  // FIFO tie-break for determinism
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // best bound first
    return a.id > b.id;
  }
};

}  // namespace

MipSolution BranchAndBoundSolver::solve(const lp::LpProblem& problem) const {
  // Work in minimization sense internally.
  const bool maximize = problem.sense() == lp::Sense::kMaximize;
  const double sense = maximize ? -1.0 : 1.0;

  std::vector<lp::VarId> integer_vars;
  for (lp::VarId v = 0; v < problem.num_variables(); ++v) {
    if (problem.variable(v).is_integer) integer_vars.push_back(v);
  }

  MipSolution result;
  util::Stopwatch clock;
  lp::SimplexSolver lp_solver;

  double incumbent = lp::kInfinity;
  std::vector<double> incumbent_values;
  if (options_.initial_incumbent_objective) {
    incumbent = sense * *options_.initial_incumbent_objective;
    incumbent_values = options_.initial_incumbent_values;
  }

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  long next_id = 0;
  {
    Node root;
    root.bound = -lp::kInfinity;
    root.lower.reserve(static_cast<std::size_t>(problem.num_variables()));
    root.upper.reserve(static_cast<std::size_t>(problem.num_variables()));
    for (lp::VarId v = 0; v < problem.num_variables(); ++v) {
      root.lower.push_back(problem.variable(v).lower);
      root.upper.push_back(problem.variable(v).upper);
    }
    root.id = next_id++;
    open.push(std::move(root));
  }

  double best_open_bound = -lp::kInfinity;
  // Least bound among nodes dropped at the LP iteration limit: their
  // subtrees were never searched, so the optimum may lie below it.
  double dropped_bound = lp::kInfinity;
  bool hit_limit = false;
  bool root_unbounded = false;
  lp::LpProblem scratch = problem;

  while (!open.empty()) {
    if ((options_.max_nodes > 0 &&
         result.nodes_explored >= options_.max_nodes) ||
        (options_.time_limit_seconds > 0.0 &&
         clock.elapsed_seconds() > options_.time_limit_seconds)) {
      // Best-first order: the top node holds the least bound still open.
      hit_limit = true;
      best_open_bound = open.top().bound;
      break;
    }

    Node node = open.top();
    open.pop();
    best_open_bound = node.bound;
    if (node.bound >= incumbent - kAbsoluteGap) {
      // Best-first order: every remaining node is at least as bad.
      best_open_bound = incumbent;
      break;
    }
    ++result.nodes_explored;

    for (lp::VarId v = 0; v < problem.num_variables(); ++v) {
      scratch.set_bounds(v, node.lower[static_cast<std::size_t>(v)],
                         node.upper[static_cast<std::size_t>(v)]);
    }
    const lp::LpSolution relax = lp_solver.solve(scratch);
    if (relax.status == lp::SolveStatus::kInfeasible) continue;
    if (relax.status == lp::SolveStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MIP itself is
      // unbounded (or pathological); deeper down we conservatively stop.
      root_unbounded = true;
      break;
    }
    if (relax.status == lp::SolveStatus::kIterationLimit) {
      hit_limit = true;
      dropped_bound = std::min(dropped_bound, node.bound);
      continue;  // cannot trust this node's LP; drop it, keep its bound
    }
    const double node_value = sense * relax.objective;
    if (node_value >= incumbent - kAbsoluteGap) continue;

    // Find the most fractional integer variable.
    lp::VarId branch_var = -1;
    double branch_value = 0.0;
    double most_fractional = kIntegralityTolerance;
    for (lp::VarId v : integer_vars) {
      const double value = relax.values[static_cast<std::size_t>(v)];
      const double frac = std::abs(value - std::round(value));
      if (frac > most_fractional) {
        most_fractional = frac;
        branch_var = v;
        branch_value = value;
      }
    }

    if (branch_var == -1) {
      // Integral: new incumbent.
      std::vector<double> values = relax.values;
      for (lp::VarId v : integer_vars) {
        values[static_cast<std::size_t>(v)] =
            std::round(values[static_cast<std::size_t>(v)]);
      }
      if (node_value < incumbent) {
        incumbent = node_value;
        incumbent_values = std::move(values);
      }
      continue;
    }

    // Branch.
    Node down = node;
    down.bound = node_value;
    down.upper[static_cast<std::size_t>(branch_var)] =
        std::floor(branch_value);
    down.id = next_id++;
    if (down.lower[static_cast<std::size_t>(branch_var)] <=
        down.upper[static_cast<std::size_t>(branch_var)]) {
      open.push(std::move(down));
    }

    Node up = std::move(node);
    up.bound = node_value;
    up.lower[static_cast<std::size_t>(branch_var)] = std::ceil(branch_value);
    up.id = next_id++;
    if (up.lower[static_cast<std::size_t>(branch_var)] <=
        up.upper[static_cast<std::size_t>(branch_var)]) {
      open.push(std::move(up));
    }
  }

  const bool have_incumbent = incumbent != lp::kInfinity;
  if (root_unbounded) {
    result.status = MipStatus::kUnbounded;
    return result;
  }

  double bound = open.empty() && !hit_limit ? incumbent : best_open_bound;
  bound = std::min(bound, dropped_bound);
  if (have_incumbent) bound = std::min(bound, incumbent);

  if (have_incumbent) {
    result.objective = sense * incumbent;
    result.values = std::move(incumbent_values);
    result.best_bound = sense * bound;
    const bool proven = (open.empty() && !hit_limit) ||
                        bound >= incumbent - kAbsoluteGap;
    result.status = proven ? MipStatus::kOptimal : MipStatus::kFeasible;
  } else if (!hit_limit && open.empty()) {
    result.status = MipStatus::kInfeasible;
  } else {
    result.status = MipStatus::kNoSolution;
    result.best_bound = sense * bound;
  }
  return result;
}

}  // namespace faircache::mip
