// Tests for the joint all-chunks MILP (exact/joint_milp) and its
// relationship to the iterated per-chunk optimum — the gap Theorem 1's
// transform (8) accepts.

#include "exact/joint_milp.h"

#include <gtest/gtest.h>

#include "core/approx.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "testutil.h"
#include "util/rng.h"

namespace faircache::exact {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

TEST(JointExactTest, SingleChunkMatchesPerChunkExact) {
  // With one chunk the joint model and the per-chunk model coincide
  // (fairness marginal of the first chunk is 0).
  const Graph g = graph::make_grid(2, 3);
  const auto problem = make_problem(g, 0, 1, 5);

  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);

  BruteForceCaching brtf;
  const auto iterated = brtf.run(problem);
  ASSERT_TRUE(brtf.all_proven_optimal());
  EXPECT_NEAR(joint.objective, iterated.placements[0].solver_objective,
              1e-5);
}

TEST(JointExactTest, RespectsCapacityLevels) {
  const Graph g = graph::make_path(4);
  const auto problem = make_problem(g, 0, 3, 1);  // capacity 1!
  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);
  std::vector<int> load(4, 0);
  for (const auto& holders : joint.cache_nodes) {
    for (NodeId v : holders) {
      EXPECT_NE(v, 0);  // producer never caches
      ++load[static_cast<std::size_t>(v)];
    }
  }
  for (int l : load) EXPECT_LE(l, 1);
}

TEST(JointExactTest, JointNeverWorseThanIterated) {
  // The iterated per-chunk optimum is one feasible point of the joint
  // model, so joint_opt ≤ joint_objective(iterated placement).
  const Graph g = graph::make_grid(2, 3);
  const auto problem = make_problem(g, 1, 2, 2);

  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);

  BruteForceCaching brtf;
  const auto iterated = brtf.run(problem);
  std::vector<std::vector<NodeId>> placement;
  for (const auto& p : iterated.placements) {
    placement.push_back(p.cache_nodes);
  }
  const double iterated_joint_cost = joint_objective(problem, placement);
  EXPECT_LE(joint.objective, iterated_joint_cost + 1e-5);
}

TEST(JointExactTest, JointObjectiveConsistentWithSolver) {
  // Evaluating the solver's own placement must reproduce its objective.
  const Graph g = graph::make_grid(2, 3);
  const auto problem = make_problem(g, 0, 2, 3);
  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);
  EXPECT_NEAR(joint_objective(problem, joint.cache_nodes), joint.objective,
              1e-5);
}

TEST(JointExactTest, ApproxPlacementWithinRatioOfJoint) {
  // End-to-end sanity: Algorithm 1's placement, scored under the joint
  // objective, stays within the 6.55 factor of the joint optimum (the
  // paper's guarantee is against transform (8), which upper-bounds this,
  // and assumes the 1.55-approximate Steiner tree; for the 2-approximate
  // one built here 6.55 is a stricter check, not a proven bound).
  const Graph g = graph::make_grid(2, 3);
  const auto problem = make_problem(g, 0, 2, 5);

  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);
  ASSERT_GT(joint.objective, 0.0);

  core::ApproxFairCaching appx;
  const auto result = appx.run(problem);
  std::vector<std::vector<NodeId>> placement;
  for (const auto& p : result.placements) placement.push_back(p.cache_nodes);
  EXPECT_LE(joint_objective(problem, placement),
            6.55 * joint.objective + 1e-6);
}

// Property sweep on random tiny instances: joint ≤ iterated (under the
// joint objective) and both valid.
class JointVsIteratedTest : public ::testing::TestWithParam<int> {};

TEST_P(JointVsIteratedTest, JointLowerBoundsIterated) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021 + 9);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(4, 6));
  config.radius = rng.uniform(0.45, 0.7);
  const auto net = graph::make_random_geometric(config, rng);
  const auto problem =
      make_problem(net.graph, 0, static_cast<int>(rng.uniform_int(1, 2)),
                   static_cast<int>(rng.uniform_int(1, 3)));

  const JointExactSolution joint = solve_joint_exact(problem);
  ASSERT_TRUE(joint.proven_optimal);

  BruteForceCaching brtf;
  const auto iterated = brtf.run(problem);
  std::vector<std::vector<NodeId>> placement;
  for (const auto& p : iterated.placements) {
    placement.push_back(p.cache_nodes);
  }
  EXPECT_LE(joint.objective, joint_objective(problem, placement) + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomTinyInstances, JointVsIteratedTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace faircache::exact
