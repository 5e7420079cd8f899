// Cross-algorithm integration tests: the paper's qualitative claims, run
// end-to-end on the evaluation topologies with the shared evaluator.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/greedy_topology.h"
#include "core/approx.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "sim/distributed.h"
#include "testutil.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;

using testutil::make_problem;

std::vector<std::unique_ptr<core::CachingAlgorithm>> all_algorithms() {
  std::vector<std::unique_ptr<core::CachingAlgorithm>> algos;
  algos.push_back(std::make_unique<core::ApproxFairCaching>());
  algos.push_back(std::make_unique<sim::DistributedFairCaching>());
  algos.push_back(std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kHopCount));
  algos.push_back(std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kContention));
  return algos;
}

TEST(IntegrationTest, PaperGridScenarioFairnessOrdering) {
  // 6×6 grid, producer 9, 5 chunks, capacity 5 — the Fig. 1/6/7 setup.
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  double gini_appx = 0.0;
  double gini_dist = 0.0;
  double gini_hopc = 0.0;
  double gini_cont = 0.0;
  for (const auto& algo : all_algorithms()) {
    const auto result = algo->run(problem);
    const double gini =
        metrics::gini_coefficient(result.state.stored_counts());
    if (result.algorithm == "Appx") gini_appx = gini;
    if (result.algorithm == "Dist") gini_dist = gini;
    if (result.algorithm == "Hopc") gini_hopc = gini;
    if (result.algorithm == "Cont") gini_cont = gini;
  }
  // Paper Fig. 7: our algorithms' Gini < 0.4; baselines far less fair.
  EXPECT_LT(gini_appx, 0.4);
  EXPECT_LT(gini_dist, 0.4);
  EXPECT_GT(gini_hopc, gini_appx + 0.2);
  EXPECT_GT(gini_cont, gini_dist + 0.2);
}

TEST(IntegrationTest, PaperGridScenarioPercentileFairness) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  std::vector<std::pair<std::string, double>> p75;
  for (const auto& algo : all_algorithms()) {
    const auto result = algo->run(problem);
    p75.emplace_back(result.algorithm,
                     metrics::percentile_fairness(
                         result.state.stored_counts(), 75.0));
  }
  // Paper §V-B: Appx/Dist 75-percentile fairness is several times the
  // baselines'.
  double appx = 0, dist = 0, hopc = 0, cont = 0;
  for (const auto& [name, value] : p75) {
    if (name == "Appx") appx = value;
    if (name == "Dist") dist = value;
    if (name == "Hopc") hopc = value;
    if (name == "Cont") cont = value;
  }
  EXPECT_GT(appx, 3.0 * hopc);
  EXPECT_GT(appx, 2.0 * cont);
  EXPECT_GT(dist, 3.0 * hopc);
}

TEST(IntegrationTest, ContentionOrderingOnGrid) {
  // Fig. 2 shape: Appx ≈ Cont (within a modest factor), both clearly
  // better than Hopc is NOT guaranteed on small grids, but Appx must not
  // be worse than either baseline by more than ~25%.
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  double appx = 0, hopc = 0, cont = 0;
  for (const auto& algo : all_algorithms()) {
    const auto result = algo->run(problem);
    const double total = result.evaluate(problem).total();
    if (result.algorithm == "Appx") appx = total;
    if (result.algorithm == "Hopc") hopc = total;
    if (result.algorithm == "Cont") cont = total;
  }
  EXPECT_LT(appx, 1.25 * cont);
  EXPECT_LT(appx, 1.25 * hopc);
}

TEST(IntegrationTest, ContentionOrderingOnRandomNetwork) {
  // Fig. 4 shape: on random networks Appx/Dist beat Hopc decisively and
  // stay comparable to Cont.
  util::Rng rng(4242);
  graph::RandomGeometricConfig config;
  config.num_nodes = 80;
  config.radius = 0.16;
  const auto net = graph::make_random_geometric(config, rng);
  const auto problem = make_problem(net.graph, 0, 5, 5);

  double appx = 0, dist = 0, hopc = 0, cont = 0;
  for (const auto& algo : all_algorithms()) {
    const auto result = algo->run(problem);
    const double total = result.evaluate(problem).total();
    if (result.algorithm == "Appx") appx = total;
    if (result.algorithm == "Dist") dist = total;
    if (result.algorithm == "Hopc") hopc = total;
    if (result.algorithm == "Cont") cont = total;
  }
  EXPECT_LT(appx, hopc);
  EXPECT_LT(dist, hopc);
  EXPECT_LT(appx, 1.2 * cont);
}

TEST(IntegrationTest, ApproxWithinRatioOfBruteForceTotals) {
  // §V-B: the observed per-run ratio between Appx and Brtf stays well
  // under 6.55 (paper observes ≤ 5.6; 6.55 is proven for the
  // 1.55-approximate Steiner tree, a stricter check for the 2-approximate
  // one built here). Proven optimality is
  // only asserted on the 3×3 grid — the single-commodity-flow MILP
  // relaxation is too weak to close 16-node instances quickly (see
  // DESIGN.md §2.6); larger grids are exercised with a time budget in
  // bench/fig2_contention_cost.
  for (const int side : {3}) {
    const Graph g = graph::make_grid(side, side);
    const auto problem = make_problem(g, 0, 2, 5);

    core::ApproxFairCaching appx;
    const auto appx_result = appx.run(problem);

    exact::BruteForceCaching brtf;
    const auto brtf_result = brtf.run(problem);
    ASSERT_TRUE(brtf.all_proven_optimal());

    // Compare the chunk-0 solver objectives: that is the only chunk whose
    // ConFL instance is identical under both algorithms (later instances
    // depend on each algorithm's own earlier placements).
    const double appx_obj = appx_result.placements.front().solver_objective;
    const double brtf_obj = brtf_result.placements.front().solver_objective;
    ASSERT_GT(brtf_obj, 0.0);
    EXPECT_LE(appx_obj, 6.55 * brtf_obj + 1e-6);
    EXPECT_GE(appx_obj, brtf_obj - 1e-6);
  }
}

TEST(IntegrationTest, RuntimeOrderingApproxFastest) {
  // Fig. 5 claim: Appx computes placements faster than the greedy
  // baselines (which re-evaluate Steiner trees per candidate).
  const Graph g = graph::make_grid(10, 10);
  const auto problem = make_problem(g, 9, 1, 5);

  core::ApproxFairCaching appx;
  const double t_appx = appx.run(problem).runtime_seconds;

  baselines::GreedyTopologyCaching cont;
  const double t_cont = cont.run(problem).runtime_seconds;

  EXPECT_LT(t_appx, t_cont);
}

TEST(IntegrationTest, EvaluatorConsistentAcrossAlgorithms) {
  // The shared evaluator must never report negative costs, and totals must
  // decompose into the per-chunk values, for every algorithm.
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 6, 4, 5);
  for (const auto& algo : all_algorithms()) {
    const auto result = algo->run(problem);
    const auto eval = result.evaluate(problem);
    double acc = 0, dis = 0;
    for (const auto& chunk : eval.per_chunk) {
      EXPECT_GE(chunk.access_cost, 0.0);
      EXPECT_GE(chunk.dissemination_cost, 0.0);
      acc += chunk.access_cost;
      dis += chunk.dissemination_cost;
    }
    EXPECT_DOUBLE_EQ(acc, eval.access_cost);
    EXPECT_DOUBLE_EQ(dis, eval.dissemination_cost);
  }
}

// Fig. 8 shape: cumulative contention as the number of distinct chunks
// grows — the fair algorithms' totals grow smoothly while the baselines
// jump when they spill to a second node set.
TEST(IntegrationTest, MultiChunkAccumulationFavorsFairAlgorithms) {
  // On the tiny 4×4 grid the fair placement pays extra dissemination for
  // its spread, so "comparable" is the claim (within ~35%); on the 8×8
  // grid the paper's ordering (Appx at or below Cont) emerges.
  {
    const Graph g = graph::make_grid(4, 4);
    const auto problem = make_problem(g, 0, 10, 5);
    core::ApproxFairCaching appx;
    const double appx_10 = appx.run(problem).evaluate(problem).total();
    baselines::GreedyTopologyCaching cont;
    const double cont_10 = cont.run(problem).evaluate(problem).total();
    EXPECT_LT(appx_10, cont_10 * 1.35);
  }
  {
    const Graph g = graph::make_grid(8, 8);
    const auto problem = make_problem(g, 0, 10, 5);
    core::ApproxFairCaching appx;
    const double appx_10 = appx.run(problem).evaluate(problem).total();
    baselines::GreedyTopologyCaching cont;
    const double cont_10 = cont.run(problem).evaluate(problem).total();
    EXPECT_LT(appx_10, cont_10 * 1.1);
  }
}

}  // namespace
}  // namespace faircache
