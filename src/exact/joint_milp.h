#pragma once

// Joint exact solver for the FULL problem (3): all chunks in one MILP, for
// tiny instances only. This is the closest implementable reading of the
// paper's brute-force ILP:
//
//  * contention costs c_ij / c_e are constants computed on the *initial*
//    (empty) cache state — exactly as in formulation (3), where they are
//    fixed coefficients;
//  * the fairness term is the incremental accounting the iterated
//    algorithms use: caching the (s+1)-th chunk on node i costs
//    marginal(s) = s / (cap_i − s). We linearise it with level indicators
//    u_is ("node i holds more than s chunks"), which is exact because the
//    marginals are increasing in s;
//  * each chunk's assignment and Steiner connectivity are the ConFL rows
//    of exact/confl_milp.h (add_confl_rows) over that chunk's y column.
//
// Comparing this joint optimum against the iterated per-chunk optimum
// (BruteForceCaching) measures the price of the chunk-by-chunk
// decomposition of transform (8) — see tests/joint_test.cpp.

#include "core/problem.h"

namespace faircache::exact {

struct JointExactSolution {
  bool proven_optimal = false;
  double objective = 0.0;
  double best_bound = 0.0;
  // cache_nodes[n] = nodes caching chunk n (sorted).
  std::vector<std::vector<graph::NodeId>> cache_nodes;
  long nodes_explored = 0;
};

// Solves the joint MILP under the default core::InstanceOptions and MIP
// limits. Intended for ≤ ~9 nodes and ≤ ~3 chunks; larger instances will
// hit the MIP limits and report the incumbent.
JointExactSolution solve_joint_exact(const core::FairCachingProblem& problem);

// Objective of an arbitrary placement under the joint model (initial-state
// contention constants + incremental fairness). Tree costs are computed
// with the exact Dreyfus–Wagner solver, so this is the true joint
// objective of the placement. Used to compare algorithms under one
// objective in tests.
double joint_objective(const core::FairCachingProblem& problem,
                       const std::vector<std::vector<graph::NodeId>>& nodes);

}  // namespace faircache::exact
