#include "exact/joint_milp.h"

#include <algorithm>

#include "core/instance_builder.h"
#include "exact/confl_milp.h"
#include "steiner/steiner.h"

namespace faircache::exact {

using graph::kInfCost;
using graph::NodeId;

namespace {

// Incremental fairness cost of caching the (s+1)-th chunk on a node of
// capacity `cap`: the fairness degree at S = s.
double marginal_fairness(int s, int cap) {
  if (s >= cap) return kInfCost;
  return static_cast<double>(s) / static_cast<double>(cap - s);
}

// Formulation (3) prices every chunk with the initial-state contention
// costs, so one ConFL instance holds every chunk's c_ij and c_e.
confl::ConflInstance initial_instance(const core::FairCachingProblem& problem,
                                      const metrics::CacheState& initial) {
  return core::try_build_chunk_instance(problem, initial, {}, 0).value();
}

}  // namespace

JointExactSolution solve_joint_exact(const core::FairCachingProblem& problem) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  const int n = problem.network->num_nodes();
  const int q = problem.num_chunks;
  const NodeId root = problem.producer;

  const metrics::CacheState initial = problem.make_initial_state();
  const confl::ConflInstance instance = initial_instance(problem, initial);

  lp::LpProblem p;
  lp::LinearExpr objective;

  // y[c][i]: node i caches chunk c, per cacheable node and chunk.
  std::vector<std::vector<lp::VarId>> y(
      static_cast<std::size_t>(q),
      std::vector<lp::VarId>(static_cast<std::size_t>(n), -1));
  for (NodeId i = 0; i < n; ++i) {
    if (i == root || initial.capacity(i) == 0) continue;
    for (int c = 0; c < q; ++c) {
      y[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
          p.add_binary_variable();
    }
  }

  // Level indicators u_{i,s} with increasing marginal fairness costs.
  for (NodeId i = 0; i < n; ++i) {
    if (i == root || initial.capacity(i) == 0) continue;
    const int cap = std::min(initial.capacity(i), q);
    // Σ_n y_{i,n} − Σ_s u_{i,s} = 0 (also enforces the capacity bound).
    lp::LinearExpr chunk_sum;
    for (int c = 0; c < q; ++c) {
      chunk_sum.add(y[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
                    1.0);
    }
    lp::VarId prev = -1;
    for (int s = 0; s < cap; ++s) {
      const lp::VarId u = p.add_binary_variable();
      objective.add(u, marginal_fairness(s, initial.capacity(i)));
      chunk_sum.add(u, -1.0);
      if (prev != -1) {
        // u_{i,s} ≤ u_{i,s−1}: levels fill in order.
        p.add_constraint(lp::LinearExpr().add(u, 1.0).add(prev, -1.0),
                         lp::Relation::kLessEqual, 0.0);
      }
      prev = u;
    }
    p.add_constraint(std::move(chunk_sum), lp::Relation::kEqual, 0.0);
  }

  // Per-chunk assignment, connectivity and dissemination: the ConFL rows
  // over that chunk's y column.
  ConflMilpMaps maps;
  for (int c = 0; c < q; ++c) {
    maps.open_var = y[static_cast<std::size_t>(c)];
    add_confl_rows(instance, p, objective, &maps);
  }

  p.set_objective(lp::Sense::kMinimize, std::move(objective));

  const mip::MipSolution mip_solution = mip::BranchAndBoundSolver().solve(p);

  JointExactSolution result;
  result.nodes_explored = mip_solution.nodes_explored;
  result.best_bound = mip_solution.best_bound;
  result.proven_optimal = mip_solution.status == mip::MipStatus::kOptimal;
  if (mip_solution.status == mip::MipStatus::kOptimal ||
      mip_solution.status == mip::MipStatus::kFeasible) {
    result.objective = mip_solution.objective;
    result.cache_nodes.assign(static_cast<std::size_t>(q), {});
    for (int c = 0; c < q; ++c) {
      for (NodeId i = 0; i < n; ++i) {
        const lp::VarId yi =
            y[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
        if (yi != -1 &&
            mip_solution.values[static_cast<std::size_t>(yi)] > 0.5) {
          result.cache_nodes[static_cast<std::size_t>(c)].push_back(i);
        }
      }
    }
  }
  return result;
}

double joint_objective(const core::FairCachingProblem& problem,
                       const std::vector<std::vector<NodeId>>& nodes) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  const graph::Graph& g = *problem.network;
  const metrics::CacheState initial = problem.make_initial_state();
  const confl::ConflInstance instance = initial_instance(problem, initial);
  const NodeId root = problem.producer;
  auto cost = [&](NodeId i, NodeId j) {
    return instance
        .assign_cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };

  double total = 0.0;
  std::vector<int> load(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const auto& holders : nodes) {
    // Fairness marginals.
    for (NodeId i : holders) {
      total += marginal_fairness(load[static_cast<std::size_t>(i)],
                                 initial.capacity(i));
      ++load[static_cast<std::size_t>(i)];
    }
    // Access.
    for (NodeId j = 0; j < g.num_nodes(); ++j) {
      double best = cost(root, j);
      for (NodeId i : holders) best = std::min(best, cost(i, j));
      total += best;
    }
    // Dissemination (exact tree).
    if (!holders.empty()) {
      std::vector<NodeId> terminals = holders;
      terminals.push_back(root);
      total += instance.edge_scale * steiner::steiner_exact_dreyfus_wagner(
                                         g, instance.edge_cost, terminals);
    }
  }
  return total;
}

}  // namespace faircache::exact
