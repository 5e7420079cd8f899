// Tests for the exact ConFL MILP: encoding validated against a brute-force
// enumeration oracle (all facility subsets × exact Steiner trees), plus the
// approximation-ratio property of the primal–dual algorithm against the
// exact optimum (paper Theorem 1: ratio ≤ 6.55 with the 1.55-approximate
// Steiner tree — the 2(1 − 1/|T|) tree built here makes 6.55 a stricter
// check, not a proven bound; observed ≤ 5.6).

#include "exact/confl_milp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/instance_builder.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "metrics/cache_state.h"
#include "metrics/contention.h"
#include "steiner/steiner.h"
#include "util/rng.h"

namespace faircache::exact {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

confl::ConflInstance make_instance(const Graph& g, NodeId root,
                                   std::vector<double> facility_cost,
                                   double edge_scale = 1.0) {
  metrics::CacheState state(g.num_nodes(), 5, root);
  const metrics::ContentionMatrix contention(g, state);
  confl::ConflInstance instance;
  instance.network = &g;
  instance.root = root;
  instance.facility_cost = std::move(facility_cost);
  instance.assign_cost = contention.matrix();
  instance.edge_cost = contention.edge_costs();
  instance.edge_scale = edge_scale;
  return instance;
}

// Enumeration oracle: tries every subset of openable facilities; tree cost
// via exact Dreyfus–Wagner; assignment via cheapest open facility.
double enumerate_optimum(const confl::ConflInstance& instance) {
  const Graph& g = *instance.network;
  std::vector<NodeId> candidates;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (i != instance.root &&
        instance.facility_cost[static_cast<std::size_t>(i)] != kInf) {
      candidates.push_back(i);
    }
  }
  std::vector<double> scaled = instance.edge_cost;
  for (double& w : scaled) w *= instance.edge_scale;

  double best = kInf;
  const std::size_t subsets = std::size_t{1} << candidates.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<NodeId> open;
    for (std::size_t b = 0; b < candidates.size(); ++b) {
      if ((mask >> b) & 1) open.push_back(candidates[b]);
    }
    double tree = 0.0;
    if (!open.empty()) {
      std::vector<NodeId> terminals = open;
      terminals.push_back(instance.root);
      tree = steiner::steiner_exact_dreyfus_wagner(g, scaled, terminals);
    }
    best = std::min(best,
                    confl::evaluate_confl_objective(instance, open, tree));
  }
  return best;
}

TEST(ConflMilpTest, BuildsExpectedVariableStructure) {
  const Graph g = graph::make_path(4);
  std::vector<double> fcost{0.0, 1.0, kInf, 2.0};
  const confl::ConflInstance instance = make_instance(g, 0, fcost);
  ConflMilpMaps maps;
  const lp::LpProblem milp = build_confl_milp(instance, &maps);

  EXPECT_EQ(maps.open_var[0], -1);  // root: no y
  EXPECT_NE(maps.open_var[1], -1);
  EXPECT_EQ(maps.open_var[2], -1);  // +inf facility pruned
  EXPECT_NE(maps.open_var[3], -1);
  EXPECT_EQ(maps.edge_var.size(), 3u);
  // Every client has a root assignment variable.
  for (NodeId j = 0; j < 4; ++j) {
    EXPECT_NE(maps.assign_var[0][static_cast<std::size_t>(j)], -1);
  }
  EXPECT_GT(milp.num_constraints(), 0);
}

TEST(ConflMilpTest, DominatedAssignmentsPruned) {
  const Graph g = graph::make_path(4);
  const confl::ConflInstance instance =
      make_instance(g, 0, std::vector<double>(4, 0.0));
  ConflMilpMaps maps;
  build_confl_milp(instance, &maps);
  // Facility 3 serving client 0 costs more than the root (which is node 0
  // itself, cost 0) → pruned.
  EXPECT_EQ(maps.assign_var[3][0], -1);
  // Facility 3 serving itself costs 0 < root cost → kept.
  EXPECT_NE(maps.assign_var[3][3], -1);
}

TEST(ExactConflTest, RootOnlyWhenEverythingInfinite) {
  const Graph g = graph::make_grid(2, 3);
  const confl::ConflInstance instance =
      make_instance(g, 0, std::vector<double>(6, kInf));
  const ExactConflSolution s = solve_confl_exact(instance);
  EXPECT_TRUE(s.proven_optimal);
  EXPECT_TRUE(s.open_facilities.empty());
  // Objective = Σ_j c_root,j.
  double expected = 0.0;
  for (NodeId j = 0; j < 6; ++j) {
    expected += instance.assign_cost[0][static_cast<std::size_t>(j)];
  }
  EXPECT_NEAR(s.objective, expected, 1e-6);
}

TEST(ExactConflTest, MatchesEnumerationOnPath) {
  const Graph g = graph::make_path(5);
  const confl::ConflInstance instance =
      make_instance(g, 0, std::vector<double>(5, 1.0));
  const ExactConflSolution s = solve_confl_exact(instance);
  ASSERT_TRUE(s.proven_optimal);
  EXPECT_NEAR(s.objective, enumerate_optimum(instance), 1e-5);
}

TEST(ExactConflTest, MatchesEnumerationOnSmallGrid) {
  const Graph g = graph::make_grid(2, 3);
  const confl::ConflInstance instance =
      make_instance(g, 1, std::vector<double>(6, 0.5));
  const ExactConflSolution s = solve_confl_exact(instance);
  ASSERT_TRUE(s.proven_optimal);
  EXPECT_NEAR(s.objective, enumerate_optimum(instance), 1e-5);
}

TEST(ExactConflTest, WarmStartFallbackUnderNodeLimit) {
  const Graph g = graph::make_grid(3, 3);
  const confl::ConflInstance instance =
      make_instance(g, 4, std::vector<double>(9, 0.5));
  mip::MipOptions options;
  options.max_nodes = 1;  // force early stop
  const ExactConflSolution s = solve_confl_exact(instance, options);
  // Must still return a structurally valid solution (the warm start).
  for (NodeId i : s.open_facilities) {
    EXPECT_NE(i, instance.root);
  }
  EXPECT_GT(s.objective, 0.0);
}

// Stopped at a node limit, the reported bound is the least bound still
// open — the root LP value after one node — not the −inf bound of the
// last node popped.
TEST(ExactConflTest, NodeLimitReportsLeastOpenBound) {
  const Graph g = graph::make_grid(3, 3);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 5;
  problem.uniform_capacity = 5;
  const confl::ConflInstance instance =
      core::try_build_chunk_instance(problem, problem.make_initial_state(),
                                     core::InstanceOptions{})
          .value();
  mip::MipOptions options;
  options.max_nodes = 1;
  const ExactConflSolution s = solve_confl_exact(instance, options);
  EXPECT_EQ(s.nodes_explored, 1);
  EXPECT_TRUE(std::isfinite(s.best_bound));
  EXPECT_LE(s.best_bound, s.objective);
}

// Property sweep: MILP optimum == enumeration oracle on random tiny
// instances with mixed facility costs and edge scales.
class ExactVsEnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsEnumerationTest, MilpMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL +
                3037000493ULL);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(4, 7));
  config.radius = rng.uniform(0.4, 0.7);
  const auto net = graph::make_random_geometric(config, rng);
  const NodeId root = static_cast<NodeId>(
      rng.bounded(static_cast<std::uint64_t>(net.graph.num_nodes())));
  std::vector<double> fcost(static_cast<std::size_t>(net.graph.num_nodes()));
  for (auto& f : fcost) {
    f = rng.bernoulli(0.25) ? kInf : rng.uniform(0.0, 3.0);
  }
  const double edge_scale = rng.bernoulli(0.5) ? 1.0 : 2.0;

  const confl::ConflInstance instance =
      make_instance(net.graph, root, fcost, edge_scale);
  const ExactConflSolution s = solve_confl_exact(instance);
  ASSERT_TRUE(s.proven_optimal);
  EXPECT_NEAR(s.objective, enumerate_optimum(instance), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomTinyInstances, ExactVsEnumerationTest,
                         ::testing::Range(0, 15));

// The headline property: primal–dual ≤ 6.55 × exact optimum per chunk
// (the paper's constant for the 1.55-approximate Steiner tree; stricter
// than any constant proven for the 2-approximate tree built here).
class ApproximationRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(ApproximationRatioTest, PrimalDualWithinProvenRatio) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 31);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(5, 9));
  config.radius = rng.uniform(0.35, 0.6);
  const auto net = graph::make_random_geometric(config, rng);
  const NodeId root = static_cast<NodeId>(
      rng.bounded(static_cast<std::uint64_t>(net.graph.num_nodes())));
  std::vector<double> fcost(static_cast<std::size_t>(net.graph.num_nodes()));
  for (auto& f : fcost) {
    f = rng.bernoulli(0.2) ? kInf : rng.uniform(0.0, 2.0);
  }

  const confl::ConflInstance instance =
      make_instance(net.graph, root, fcost);
  const confl::ConflSolution approx =
      confl::try_solve_confl(instance).value();
  const ExactConflSolution opt = solve_confl_exact(instance);
  ASSERT_TRUE(opt.proven_optimal);
  ASSERT_GT(opt.objective, 0.0);
  EXPECT_LE(approx.total(), 6.55 * opt.objective + 1e-6)
      << "approx " << approx.total() << " vs optimal " << opt.objective;
  EXPECT_GE(approx.total(), opt.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ApproximationRatioTest,
                         ::testing::Range(0, 15));

// Demand-weighted instances: the MILP (weighted x-objective) must still
// match the enumeration oracle, and the weighted primal–dual must stay
// within the proven ratio of the weighted optimum.
class WeightedExactTest : public ::testing::TestWithParam<int> {};

TEST_P(WeightedExactTest, MilpMatchesEnumerationAndRatioHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 779459 + 3);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(4, 7));
  config.radius = rng.uniform(0.4, 0.7);
  const auto net = graph::make_random_geometric(config, rng);
  const NodeId root = 0;
  std::vector<double> fcost(static_cast<std::size_t>(net.graph.num_nodes()));
  for (auto& f : fcost) f = rng.uniform(0.0, 2.0);

  confl::ConflInstance instance = make_instance(net.graph, root, fcost);
  instance.client_weight.assign(
      static_cast<std::size_t>(net.graph.num_nodes()), 1.0);
  for (auto& w : instance.client_weight) w = rng.uniform(0.1, 3.0);

  const ExactConflSolution opt = solve_confl_exact(instance);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_NEAR(opt.objective, enumerate_optimum(instance), 1e-5);

  const confl::ConflSolution approx =
      confl::try_solve_confl(instance).value();
  ASSERT_GT(opt.objective, 0.0);
  EXPECT_LE(approx.total(), 6.55 * opt.objective + 1e-6);
  EXPECT_GE(approx.total(), opt.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomWeightedInstances, WeightedExactTest,
                         ::testing::Range(0, 10));

TEST(BruteForceCachingTest, CachesChunksOptimallyOnSmallGrid) {
  const Graph g = graph::make_grid(2, 3);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 2;
  problem.uniform_capacity = 2;

  BruteForceCaching brtf;
  const core::FairCachingResult result = brtf.run(problem);
  EXPECT_TRUE(brtf.all_proven_optimal());
  EXPECT_EQ(result.placements.size(), 2u);
  EXPECT_EQ(result.state.used(0), 0);  // producer caches nothing
  for (const auto& placement : result.placements) {
    for (NodeId v : placement.cache_nodes) {
      EXPECT_TRUE(result.state.holds(v, placement.chunk));
    }
  }
}

}  // namespace
}  // namespace faircache::exact
