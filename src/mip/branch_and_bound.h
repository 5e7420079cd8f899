#pragma once

// Branch-and-bound mixed-integer solver on top of the simplex LP engine.
// Together with lp/ this replaces the paper's PuLP + CBC brute-force stack.
//
// Search: best-bound-first on the LP relaxation value, most-fractional
// branching, optional warm incumbent (e.g. the approximation algorithm's
// solution) for pruning, and node/time limits that degrade gracefully to
// "best feasible found so far" with a proven bound.

#include <optional>
#include <vector>

#include "lp/problem.h"

namespace faircache::mip {

enum class MipStatus {
  kOptimal,          // proven optimal
  kFeasible,         // stopped at a limit with an incumbent
  kInfeasible,
  kUnbounded,
  kNoSolution,       // stopped at a limit before finding any incumbent
};

const char* to_string(MipStatus status);

struct MipSolution {
  MipStatus status = MipStatus::kNoSolution;
  double objective = 0.0;      // incumbent value (if any)
  double best_bound = 0.0;     // proven bound on the optimum
  std::vector<double> values;  // incumbent point (if any)
  long nodes_explored = 0;
};

struct MipOptions {
  long max_nodes = 1'000'000;
  double time_limit_seconds = 0.0;  // 0 = unlimited
  // Warm start: a known feasible objective (and optionally the point)
  // used for pruning from the start.
  std::optional<double> initial_incumbent_objective;
  std::vector<double> initial_incumbent_values;
};

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(MipOptions options = {})
      : options_(std::move(options)) {}

  MipSolution solve(const lp::LpProblem& problem) const;

 private:
  MipOptions options_;
};

}  // namespace faircache::mip
