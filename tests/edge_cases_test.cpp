// Failure-injection and edge-case tests across modules: misuse of public
// APIs must fail loudly (CheckError), degenerate inputs must behave, and
// the demand-weighted code paths must reduce to the uniform model when
// weights are trivial.

#include <gtest/gtest.h>

#include <limits>

#include "baselines/greedy_topology.h"
#include "confl/confl.h"
#include "core/approx.h"
#include "exact/confl_milp.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "lp/simplex.h"
#include "metrics/contention.h"
#include "metrics/evaluator.h"
#include "sim/distributed.h"
#include "sim/traffic.h"
#include "steiner/steiner.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- LP misuse

TEST(LpEdgeCasesTest, RejectsCrossedBounds) {
  lp::LpProblem p;
  EXPECT_THROW(p.add_variable(3.0, 1.0), util::CheckError);
}

TEST(LpEdgeCasesTest, RejectsUnknownVariableInConstraint) {
  lp::LpProblem p;
  p.add_variable();
  EXPECT_THROW(
      p.add_constraint(lp::LinearExpr().add(5, 1.0),
                       lp::Relation::kLessEqual, 1.0),
      util::CheckError);
}

TEST(LpEdgeCasesTest, EmptyObjectiveSolvesFeasibility) {
  lp::LpProblem p;
  const lp::VarId x = p.add_variable(0.0, 2.0);
  p.add_constraint(lp::LinearExpr().add(x, 1.0),
                   lp::Relation::kGreaterEqual, 1.0);
  const auto s = lp::SimplexSolver().solve(p);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(s.values[x], 1.0 - 1e-9);
}

TEST(LpEdgeCasesTest, RedundantConstraintsHarmless) {
  lp::LpProblem p;
  const lp::VarId x = p.add_variable();
  for (int i = 0; i < 5; ++i) {
    p.add_constraint(lp::LinearExpr().add(x, 1.0),
                     lp::Relation::kGreaterEqual, 2.0);
  }
  p.add_constraint(lp::LinearExpr().add(x, 1.0), lp::Relation::kEqual, 2.0);
  p.set_objective(lp::Sense::kMinimize, lp::LinearExpr().add(x, 1.0));
  const auto s = lp::SimplexSolver().solve(p);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

// ------------------------------------------------------ contention misuse

TEST(ContentionEdgeCasesTest, DisconnectedPairsAreInfinite) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  metrics::CacheState state(4, 5, 0);
  const metrics::ContentionMatrix m(g, state);
  EXPECT_EQ(m.cost(0, 2), graph::kInfCost);
  EXPECT_LT(m.cost(0, 1), graph::kInfCost);
}

TEST(ContentionEdgeCasesTest, EvaluatorThrowsWhenChunkUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);  // node 2 isolated
  metrics::CacheState state(3, 5, 0);
  metrics::EvaluatorOptions options;
  options.num_chunks = 1;
  EXPECT_THROW(metrics::evaluate_placement(g, state, options),
               util::CheckError);
}

TEST(ContentionEdgeCasesTest, SingleNodeNetwork) {
  const Graph g(1);
  metrics::CacheState state(1, 5, 0);
  metrics::EvaluatorOptions options;
  options.num_chunks = 3;
  const auto eval = metrics::evaluate_placement(g, state, options);
  EXPECT_DOUBLE_EQ(eval.total(), 0.0);  // producer serves itself
}

// --------------------------------------------------------- confl weights

confl::ConflInstance weighted_instance(const Graph& g, NodeId root,
                                       std::vector<double> weights) {
  metrics::CacheState state(g.num_nodes(), 5, root);
  const metrics::ContentionMatrix contention(g, state);
  confl::ConflInstance instance;
  instance.network = &g;
  instance.root = root;
  instance.facility_cost.assign(static_cast<std::size_t>(g.num_nodes()),
                                0.0);
  instance.assign_cost = contention.matrix();
  instance.edge_cost = contention.edge_costs();
  instance.client_weight = std::move(weights);
  return instance;
}

TEST(ConflWeightEdgeCasesTest, UnitWeightsMatchUnweighted) {
  const Graph g = graph::make_grid(4, 4);
  confl::ConflInstance weighted =
      weighted_instance(g, 0, std::vector<double>(16, 1.0));
  confl::ConflInstance plain = weighted;
  plain.client_weight.clear();

  const auto a = confl::try_solve_confl(weighted).value();
  const auto b = confl::try_solve_confl(plain).value();
  EXPECT_EQ(a.open_facilities, b.open_facilities);
  EXPECT_DOUBLE_EQ(a.total(), b.total());
}

TEST(ConflWeightEdgeCasesTest, RejectsNegativeWeight) {
  const Graph g = graph::make_path(3);
  confl::ConflInstance instance =
      weighted_instance(g, 0, {1.0, -1.0, 1.0});
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            util::StatusCode::kInvalidInput);
}

TEST(ConflWeightEdgeCasesTest, RejectsWrongSizeWeights) {
  const Graph g = graph::make_path(3);
  confl::ConflInstance instance = weighted_instance(g, 0, {1.0, 1.0});
  EXPECT_EQ(confl::try_solve_confl(instance).code(),
            util::StatusCode::kInvalidInput);
}

TEST(ConflWeightEdgeCasesTest, ScalingWeightsScalesAssignmentCost) {
  const Graph g = graph::make_grid(3, 3);
  confl::ConflInstance base =
      weighted_instance(g, 4, std::vector<double>(9, 1.0));
  confl::ConflInstance doubled =
      weighted_instance(g, 4, std::vector<double>(9, 2.0));
  const auto a = confl::try_solve_confl(base).value();
  const auto b = confl::try_solve_confl(doubled).value();
  // Doubling all weights doubles the weighted assignment cost for the
  // same facility structure (openings may differ only via γ timing, which
  // scales uniformly, so the sets match).
  EXPECT_EQ(a.open_facilities, b.open_facilities);
  EXPECT_NEAR(b.assignment_cost, 2.0 * a.assignment_cost, 1e-9);
}

// --------------------------------------------------------- core problems

TEST(CoreEdgeCasesTest, SingleNodeProblem) {
  const Graph g(1);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 2;
  core::ApproxFairCaching appx;
  const auto result = appx.run(problem);
  EXPECT_EQ(result.state.total_stored(), 0);  // nobody but the producer
}

TEST(CoreEdgeCasesTest, TwoNodeProblem) {
  const Graph g = graph::make_path(2);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 3;
  problem.uniform_capacity = 2;
  core::ApproxFairCaching appx;
  const auto result = appx.run(problem);
  EXPECT_LE(result.state.used(1), 2);
  const auto eval = result.evaluate(problem);
  EXPECT_GE(eval.total(), 0.0);
}

TEST(CoreEdgeCasesTest, InvalidProducerRejected) {
  const Graph g = graph::make_path(3);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 7;
  problem.num_chunks = 1;
  core::ApproxFairCaching appx;
  EXPECT_THROW(appx.run(problem), util::CheckError);
}

// ------------------------------------------------------------ steiner/mip

TEST(SteinerEdgeCasesTest, AllNodesTerminalsIsSpanningTree) {
  const Graph g = graph::make_grid(3, 3);
  std::vector<double> w(static_cast<std::size_t>(g.num_edges()), 1.0);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < 9; ++v) all.push_back(v);
  const auto tree = steiner::try_steiner_mst_approx(g, w, all).value();
  EXPECT_EQ(tree.edges.size(), 8u);
  EXPECT_DOUBLE_EQ(tree.cost, 8.0);
}

TEST(MipEdgeCasesTest, SeededIncumbentIsImprovedWhenSuboptimal) {
  // max x, x ∈ {0..5}: seed incumbent 2 must be improved to 5.
  lp::LpProblem p;
  const lp::VarId x = p.add_integer_variable(0.0, 5.0);
  p.set_objective(lp::Sense::kMaximize, lp::LinearExpr().add(x, 1.0));
  mip::MipOptions options;
  options.initial_incumbent_objective = 2.0;
  options.initial_incumbent_values = {2.0};
  const auto s = mip::BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(s.status, mip::MipStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

// ------------------------------------------------------------ distributed

TEST(DistributedEdgeCasesTest, TwoNodeNetwork) {
  const Graph g = graph::make_path(2);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 2;
  sim::DistributedFairCaching dist;
  const auto result = dist.run(problem);
  EXPECT_EQ(result.placements.size(), 2u);
}

TEST(DistributedEdgeCasesTest, StarTopology) {
  const Graph g = graph::make_star(9);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;  // the hub produces
  problem.num_chunks = 3;
  sim::DistributedFairCaching dist;
  const auto result = dist.run(problem);
  // Every leaf is 1 hop from the producer; nothing needs caching, and
  // whatever caches must respect capacity.
  for (NodeId v = 0; v < 9; ++v) {
    EXPECT_LE(result.state.used(v), 5);
  }
}

TEST(TrafficEdgeCasesTest, ZeroChunksEmptyResult) {
  const Graph g = graph::make_grid(3, 3);
  metrics::CacheState state(9, 5, 0);
  sim::TrafficOptions options;
  options.num_chunks = 0;
  const auto access = sim::simulate_access_phase(g, state, options);
  EXPECT_TRUE(access.fetches.empty());
  const auto dissemination =
      sim::simulate_dissemination_phase(g, state, options);
  EXPECT_EQ(dissemination.transmissions, 0);
}

// ------------------------------------------------------------- baselines

TEST(BaselineEdgeCasesTest, TwoNodeNetworkPlacesOrSkips) {
  const Graph g = graph::make_path(2);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 2;
  baselines::GreedyTopologyCaching cont;
  const auto result = cont.run(problem);
  EXPECT_LE(result.state.used(1), 5);
  EXPECT_EQ(result.state.used(0), 0);
}

// Randomized cross-check: on arbitrary connected graphs every algorithm
// produces a capacity-respecting, producer-clean placement.
class AllAlgorithmsFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AllAlgorithmsFuzzTest, InvariantsHold) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 999331 + 17);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(2, 40));
  config.radius = rng.uniform(0.2, 0.6);
  const auto net = graph::make_random_geometric(config, rng);
  core::FairCachingProblem problem;
  problem.network = &net.graph;
  problem.producer = static_cast<NodeId>(
      rng.bounded(static_cast<std::uint64_t>(net.graph.num_nodes())));
  problem.num_chunks = static_cast<int>(rng.uniform_int(1, 6));
  problem.uniform_capacity = static_cast<int>(rng.uniform_int(1, 5));

  core::ApproxFairCaching appx;
  sim::DistributedFairCaching dist;
  baselines::GreedyTopologyCaching hopc(
      baselines::BaselineMetric::kHopCount);
  core::CachingAlgorithm* algos[] = {&appx, &dist, &hopc};
  for (auto* algo : algos) {
    const auto result = algo->run(problem);
    EXPECT_EQ(result.state.used(problem.producer), 0);
    for (NodeId v = 0; v < net.graph.num_nodes(); ++v) {
      EXPECT_LE(result.state.used(v), problem.uniform_capacity);
    }
    const auto eval = result.evaluate(problem);
    EXPECT_GE(eval.total(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, AllAlgorithmsFuzzTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace faircache
