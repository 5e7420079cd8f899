#pragma once

// Exact ConFL via MILP. The paper's connectivity constraint family (6) is
// exponential (one row per node subset); we encode it equivalently with a
// polynomial single-commodity flow: the root injects one unit of flow per
// open facility, facilities absorb one unit each, and flow may only ride
// edges bought for the Steiner tree (z_e = 1). Any feasible integral
// solution therefore connects every open facility to the root, and the
// minimal-cost choice of z edges is exactly the optimal Steiner tree.
//
// Variable reduction: assignments x_ij with c_ij > c_root,j are dominated
// (serving j straight from the root is feasible and cheaper) and omitted.

#include <vector>

#include "confl/confl.h"
#include "lp/problem.h"
#include "mip/branch_and_bound.h"

namespace faircache::exact {

// Bookkeeping to read a MILP solution back into graph terms.
struct ConflMilpMaps {
  // y variable per node; -1 when the node can never open (f_i = +inf). The
  // root has no y variable (it is the flow source, not a facility).
  std::vector<lp::VarId> open_var;
  // x variable per (facility i, client j); -1 when pruned or absent.
  std::vector<std::vector<lp::VarId>> assign_var;
  // z variable per edge.
  std::vector<lp::VarId> edge_var;
  // Directed flow variables per edge: forward = u→v, backward = v→u.
  std::vector<lp::VarId> flow_forward;
  std::vector<lp::VarId> flow_backward;
};

// Builds the MILP for one ConFL instance: a y_i per openable facility,
// priced at f_i, then add_confl_rows.
lp::LpProblem build_confl_milp(const confl::ConflInstance& instance,
                               ConflMilpMaps* maps);

// Appends the instance's x, z and flow variables (with their objective
// terms) to `p` and `objective`, then its rows: serve, x ≤ y, flow
// conservation, flow capacity and the two cut families. The y variables
// are the caller's, read from maps->open_var (-1 = node never opens);
// every other map is overwritten. The joint MILP calls this once per
// chunk with that chunk's y column.
void add_confl_rows(const confl::ConflInstance& instance, lp::LpProblem& p,
                    lp::LinearExpr& objective, ConflMilpMaps* maps);

struct ExactConflSolution {
  std::vector<graph::NodeId> open_facilities;  // sorted
  double objective = 0.0;
  double best_bound = 0.0;
  bool proven_optimal = false;
  long nodes_explored = 0;
};

// Solves one ConFL instance exactly (subject to the MIP limits; the result
// is never worse than the primal–dual warm start). Branch and bound is
// always seeded with the primal–dual solution (default ConflOptions): it
// both prunes and guarantees a feasible fallback.
ExactConflSolution solve_confl_exact(const confl::ConflInstance& instance,
                                     const mip::MipOptions& options = {});

}  // namespace faircache::exact
