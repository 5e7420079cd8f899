#include "exact/confl_milp.h"

#include <algorithm>

#include "graph/shortest_paths.h"

namespace faircache::exact {

using graph::EdgeId;
using graph::kInfCost;
using graph::NodeId;

lp::LpProblem build_confl_milp(const confl::ConflInstance& instance,
                               ConflMilpMaps* maps) {
  FAIRCACHE_CHECK(instance.network != nullptr, "instance needs a network");
  FAIRCACHE_CHECK(maps != nullptr, "maps output required");
  const int n = instance.network->num_nodes();
  lp::LpProblem p;
  lp::LinearExpr objective;

  // --- y_i: open facility i (not the root, not +inf facilities). ---
  maps->open_var.assign(static_cast<std::size_t>(n), -1);
  for (NodeId i = 0; i < n; ++i) {
    if (i == instance.root) continue;
    const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
    if (fi == kInfCost) continue;
    const lp::VarId y = p.add_binary_variable();
    maps->open_var[static_cast<std::size_t>(i)] = y;
    objective.add(y, fi);
  }

  add_confl_rows(instance, p, objective, maps);
  p.set_objective(lp::Sense::kMinimize, std::move(objective));
  return p;
}

void add_confl_rows(const confl::ConflInstance& instance, lp::LpProblem& p,
                    lp::LinearExpr& objective, ConflMilpMaps* maps) {
  FAIRCACHE_CHECK(instance.network != nullptr, "instance needs a network");
  FAIRCACHE_CHECK(maps != nullptr, "maps output required");
  const graph::Graph& g = *instance.network;
  const int n = g.num_nodes();
  FAIRCACHE_CHECK(maps->open_var.size() == static_cast<std::size_t>(n),
                  "open_var must hold one entry per node");
  const NodeId root = instance.root;
  auto cost = [&](NodeId i, NodeId j) {
    return instance
        .assign_cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };
  auto client_weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  // --- x_ij: client j served by facility i (root always allowed). ---
  maps->assign_var.assign(
      static_cast<std::size_t>(n),
      std::vector<lp::VarId>(static_cast<std::size_t>(n), -1));
  for (NodeId j = 0; j < n; ++j) {
    const double root_cost = cost(root, j);
    for (NodeId i = 0; i < n; ++i) {
      const bool is_root = i == root;
      if (!is_root && maps->open_var[static_cast<std::size_t>(i)] == -1) {
        continue;  // cannot open
      }
      const double cij = cost(i, j);
      if (cij == kInfCost) continue;
      if (!is_root && cij > root_cost) continue;  // dominated by the root
      const lp::VarId x = p.add_variable(0.0, 1.0);
      maps->assign_var[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)] = x;
      objective.add(x, client_weight(j) * cij);
    }
  }

  // --- z_e and directed flows. ---
  maps->edge_var.assign(static_cast<std::size_t>(g.num_edges()), -1);
  maps->flow_forward.assign(static_cast<std::size_t>(g.num_edges()), -1);
  maps->flow_backward.assign(static_cast<std::size_t>(g.num_edges()), -1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const lp::VarId z = p.add_binary_variable();
    maps->edge_var[static_cast<std::size_t>(e)] = z;
    objective.add(z, instance.edge_scale *
                         instance.edge_cost[static_cast<std::size_t>(e)]);
    maps->flow_forward[static_cast<std::size_t>(e)] = p.add_variable();
    maps->flow_backward[static_cast<std::size_t>(e)] = p.add_variable();
  }

  // (4): every client j is served exactly once.
  for (NodeId j = 0; j < n; ++j) {
    lp::LinearExpr expr;
    for (NodeId i = 0; i < n; ++i) {
      const lp::VarId x =
          maps->assign_var[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
      if (x != -1) expr.add(x, 1.0);
    }
    FAIRCACHE_CHECK(!expr.empty(), "client with no candidate facility");
    p.add_constraint(std::move(expr), lp::Relation::kEqual, 1.0);
  }

  // (5): x_ij ≤ y_i for non-root facilities.
  for (NodeId i = 0; i < n; ++i) {
    const lp::VarId y = maps->open_var[static_cast<std::size_t>(i)];
    if (y == -1) continue;
    for (NodeId j = 0; j < n; ++j) {
      const lp::VarId x =
          maps->assign_var[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
      if (x == -1) continue;
      p.add_constraint(lp::LinearExpr().add(x, 1.0).add(y, -1.0),
                       lp::Relation::kLessEqual, 0.0);
    }
  }

  // (6) as flow conservation: node v ≠ root absorbs y_v units,
  // the root emits Σ y units.
  const double flow_cap = static_cast<double>(n);
  for (NodeId v = 0; v < n; ++v) {
    lp::LinearExpr balance;  // inflow − outflow
    const auto incident = g.incident_edges(v);
    for (EdgeId e : incident) {
      const graph::Edge& edge = g.edge(e);
      const bool forward_into_v = edge.v == v;  // forward = u→v
      const lp::VarId in = forward_into_v
                               ? maps->flow_forward[static_cast<std::size_t>(e)]
                               : maps->flow_backward[static_cast<std::size_t>(e)];
      const lp::VarId out =
          forward_into_v ? maps->flow_backward[static_cast<std::size_t>(e)]
                         : maps->flow_forward[static_cast<std::size_t>(e)];
      balance.add(in, 1.0).add(out, -1.0);
    }
    if (v == root) {
      // outflow − inflow = Σ y  ⇔  inflow − outflow + Σ y = 0.
      for (NodeId i = 0; i < n; ++i) {
        const lp::VarId y = maps->open_var[static_cast<std::size_t>(i)];
        if (y != -1) balance.add(y, 1.0);
      }
    } else {
      const lp::VarId y = maps->open_var[static_cast<std::size_t>(v)];
      if (y != -1) balance.add(y, -1.0);
    }
    p.add_constraint(std::move(balance), lp::Relation::kEqual, 0.0);
  }

  // Flow only on bought edges: f_fwd + f_bwd ≤ cap · z_e.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    p.add_constraint(
        lp::LinearExpr()
            .add(maps->flow_forward[static_cast<std::size_t>(e)], 1.0)
            .add(maps->flow_backward[static_cast<std::size_t>(e)], 1.0)
            .add(maps->edge_var[static_cast<std::size_t>(e)], -flow_cap),
        lp::Relation::kLessEqual, 0.0);
  }

  // Valid inequalities (strengthen the LP relaxation):
  // (i) an open facility needs at least one incident bought edge;
  for (NodeId i = 0; i < n; ++i) {
    const lp::VarId y = maps->open_var[static_cast<std::size_t>(i)];
    if (y == -1) continue;
    lp::LinearExpr expr;
    for (EdgeId e : g.incident_edges(i)) {
      expr.add(maps->edge_var[static_cast<std::size_t>(e)], 1.0);
    }
    expr.add(y, -1.0);
    p.add_constraint(std::move(expr), lp::Relation::kGreaterEqual, 0.0);
  }
  // (ii) the bought tree is at least as expensive as the cheapest path
  // from the root to any open facility: Σ_e c_e z_e ≥ dist_c(root, i)·y_i.
  // This closes most of the gap the weak flow-capacity rows leave open.
  {
    const auto root_paths =
        graph::dijkstra_edge_weights(g, root, instance.edge_cost);
    for (NodeId i = 0; i < n; ++i) {
      const lp::VarId y = maps->open_var[static_cast<std::size_t>(i)];
      if (y == -1) continue;
      const double dist = root_paths.cost[static_cast<std::size_t>(i)];
      if (dist == kInfCost || dist <= 0.0) continue;
      lp::LinearExpr expr;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        expr.add(maps->edge_var[static_cast<std::size_t>(e)],
                 instance.edge_cost[static_cast<std::size_t>(e)]);
      }
      expr.add(y, -dist);
      p.add_constraint(std::move(expr), lp::Relation::kGreaterEqual, 0.0);
    }
  }
}

ExactConflSolution solve_confl_exact(const confl::ConflInstance& instance,
                                     const mip::MipOptions& options) {
  ConflMilpMaps maps;
  const lp::LpProblem milp = build_confl_milp(instance, &maps);

  mip::MipOptions mip_options = options;
  const confl::ConflSolution warm = confl::try_solve_confl(instance).value();
  // The MILP objective of the warm solution: re-evaluate under the same
  // cheapest-assignment rule the MILP optimizes.
  mip_options.initial_incumbent_objective = confl::evaluate_confl_objective(
      instance, warm.open_facilities, warm.tree_cost);

  const mip::MipSolution mip_solution =
      mip::BranchAndBoundSolver(mip_options).solve(milp);

  ExactConflSolution result;
  result.nodes_explored = mip_solution.nodes_explored;
  result.best_bound = mip_solution.best_bound;

  const bool mip_has_point = !mip_solution.values.empty() &&
                             (mip_solution.status == mip::MipStatus::kOptimal ||
                              mip_solution.status == mip::MipStatus::kFeasible);
  if (mip_has_point) {
    result.objective = mip_solution.objective;
    result.proven_optimal = mip_solution.status == mip::MipStatus::kOptimal;
    const int n = instance.network->num_nodes();
    for (NodeId i = 0; i < n; ++i) {
      const lp::VarId y = maps.open_var[static_cast<std::size_t>(i)];
      if (y != -1 &&
          mip_solution.values[static_cast<std::size_t>(y)] > 0.5) {
        result.open_facilities.push_back(i);
      }
    }
    return result;
  }

  // Fall back to the warm primal–dual solution (limits hit before the MIP
  // produced its own point; the incumbent objective equals the warm one).
  result.objective = *mip_options.initial_incumbent_objective;
  result.proven_optimal = mip_solution.status == mip::MipStatus::kOptimal;
  result.open_facilities = warm.open_facilities;
  return result;
}

}  // namespace faircache::exact
