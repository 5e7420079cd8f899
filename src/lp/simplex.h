#pragma once

// Dense two-phase primal simplex solver.
//
// Scope: the ConFL MILP relaxations this library generates are small
// (hundreds of variables/constraints), so a dense tableau with Dantzig
// pricing and a Bland anti-cycling fallback is the right engineering
// trade-off — simple, deterministic, and fast enough. Variable lower bounds
// are shifted out; finite upper bounds become explicit rows; free variables
// are split.

#include <vector>

#include "lp/problem.h"

namespace faircache::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus status);

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;            // in the problem's original sense
  std::vector<double> values;        // one per problem variable
  int iterations = 0;
};

// The iteration limit scales with the tableau size; pricing switches from
// Dantzig to Bland's rule (which guarantees termination) halfway there.
class SimplexSolver {
 public:
  LpSolution solve(const LpProblem& problem) const;
};

}  // namespace faircache::lp
