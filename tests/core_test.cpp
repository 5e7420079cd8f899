// Tests for the core layer: problem types, instance builder and the
// approximation algorithm (Algorithm 1).

#include "core/approx.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "testutil.h"
#include "util/rng.h"

namespace faircache::core {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

using testutil::make_problem;

TEST(ProblemTest, InitialStateUniform) {
  const Graph g = graph::make_grid(3, 3);
  const FairCachingProblem problem = make_problem(g, 4, 2, 3);
  const metrics::CacheState state = problem.make_initial_state();
  EXPECT_EQ(state.num_nodes(), 9);
  EXPECT_EQ(state.capacity(0), 3);
  EXPECT_EQ(state.producer(), 4);
  EXPECT_EQ(state.total_stored(), 0);
}

TEST(ProblemTest, InitialStateHeterogeneous) {
  const Graph g = graph::make_path(3);
  FairCachingProblem problem = make_problem(g, 0, 1, 5);
  problem.capacities = {0, 2, 7};
  const metrics::CacheState state = problem.make_initial_state();
  EXPECT_EQ(state.capacity(1), 2);
  EXPECT_EQ(state.capacity(2), 7);
}

TEST(InstanceBuilderTest, FacilityCostsTrackState) {
  const Graph g = graph::make_grid(3, 3);
  const FairCachingProblem problem = make_problem(g, 4, 3, 4);
  metrics::CacheState state = problem.make_initial_state();
  state.add(0, 0);
  state.add(0, 1);

  const confl::ConflInstance instance =
      try_build_chunk_instance(problem, state, InstanceOptions{}).value();
  EXPECT_EQ(instance.root, 4);
  EXPECT_DOUBLE_EQ(instance.facility_cost[0], 2.0 / 2.0);  // 2/(4−2)
  EXPECT_DOUBLE_EQ(instance.facility_cost[1], 0.0);
  EXPECT_EQ(instance.facility_cost[4], kInf);  // producer
  // Assignment costs reflect the 1+S factor on node 0.
  EXPECT_GT(instance.assign_cost[0][2], 0.0);
}

TEST(ApproxTest, PlacementsConsistentWithState) {
  const Graph g = graph::make_grid(4, 4);
  const FairCachingProblem problem = make_problem(g, 5, 4, 3);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);

  ASSERT_EQ(result.placements.size(), 4u);
  std::vector<int> per_node(16, 0);
  for (const auto& placement : result.placements) {
    for (NodeId v : placement.cache_nodes) {
      EXPECT_TRUE(result.state.holds(v, placement.chunk));
      ++per_node[static_cast<std::size_t>(v)];
    }
  }
  EXPECT_EQ(result.state.stored_counts(), per_node);
}

TEST(ApproxTest, ProducerNeverCachesCapacityRespected) {
  const Graph g = graph::make_grid(4, 4);
  const FairCachingProblem problem = make_problem(g, 7, 8, 2);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);
  EXPECT_EQ(result.state.used(7), 0);
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_LE(result.state.used(v), 2);
  }
}

TEST(ApproxTest, FairnessSpreadsChunksAcrossNodes) {
  // The paper's headline: consecutive chunks land on (mostly) different
  // nodes because fairness + contention inflation push them away.
  const Graph g = graph::make_grid(6, 6);
  const FairCachingProblem problem = make_problem(g, 9, 5, 5);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);

  std::set<NodeId> used;
  int slots = 0;
  for (const auto& placement : result.placements) {
    EXPECT_FALSE(placement.cache_nodes.empty());
    used.insert(placement.cache_nodes.begin(), placement.cache_nodes.end());
    slots += static_cast<int>(placement.cache_nodes.size());
  }
  // Far more distinct nodes than a fixed-set scheme (which would reuse
  // ~slots/5 nodes); near-perfect spread means used ≈ slots.
  EXPECT_GE(static_cast<int>(used.size()), slots / 2);
  EXPECT_GE(static_cast<int>(used.size()), 15);
  // Gini below the paper's 0.4 threshold for the 6×6 grid.
  EXPECT_LT(metrics::gini_coefficient(result.state.stored_counts()), 0.4);
}

TEST(ApproxTest, DeterministicAcrossRuns) {
  const Graph g = graph::make_grid(5, 5);
  const FairCachingProblem problem = make_problem(g, 9, 3, 5);
  ApproxFairCaching a;
  ApproxFairCaching b;
  const FairCachingResult ra = a.run(problem);
  const FairCachingResult rb = b.run(problem);
  ASSERT_EQ(ra.placements.size(), rb.placements.size());
  for (std::size_t i = 0; i < ra.placements.size(); ++i) {
    EXPECT_EQ(ra.placements[i].cache_nodes, rb.placements[i].cache_nodes);
  }
}

TEST(ApproxTest, ZeroChunksIsNoop) {
  const Graph g = graph::make_grid(3, 3);
  const FairCachingProblem problem = make_problem(g, 4, 0, 5);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);
  EXPECT_TRUE(result.placements.empty());
  EXPECT_EQ(result.state.total_stored(), 0);
}

TEST(ApproxTest, EvaluateReportsChunkCount) {
  const Graph g = graph::make_grid(4, 4);
  const FairCachingProblem problem = make_problem(g, 5, 3, 5);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);
  const auto eval = result.evaluate(problem);
  EXPECT_EQ(eval.per_chunk.size(), 3u);
  EXPECT_GT(eval.total(), 0.0);
}

TEST(ApproxTest, MoreChunksThanCapacityStillPlaces) {
  // Q = 8 chunks with capacity 2: no node can hold more than 2; placement
  // must still succeed (producer covers the rest).
  const Graph g = graph::make_grid(4, 4);
  const FairCachingProblem problem = make_problem(g, 0, 8, 2);
  ApproxFairCaching appx;
  const FairCachingResult result = appx.run(problem);
  EXPECT_EQ(result.placements.size(), 8u);
  // Full nodes must never exceed capacity.
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_LE(result.state.used(v), 2);
  }
}

TEST(ApproxTest, BatteryFairnessShiftsLoadOffWeakNodes) {
  // With an extreme battery penalty on half the nodes, the weak nodes
  // should collectively cache no more than the strong ones.
  const Graph g = graph::make_grid(4, 4);
  const FairCachingProblem problem = make_problem(g, 0, 4, 5);

  metrics::FairnessModel::Config fc;
  fc.battery_weight = 50.0;
  metrics::FairnessModel model(fc);
  std::vector<double> budgets(16, 1e6);
  for (NodeId v = 0; v < 16; v += 2) budgets[v] = 1.001;  // weak: ~1 chunk
  model.set_battery_budgets(budgets);

  ApproxConfig config;
  config.instance.fairness = model;
  ApproxFairCaching appx(config);
  const FairCachingResult result = appx.run(problem);

  int weak_load = 0;
  int strong_load = 0;
  for (NodeId v = 0; v < 16; ++v) {
    if (v % 2 == 0) {
      weak_load += result.state.used(v);
    } else {
      strong_load += result.state.used(v);
    }
  }
  EXPECT_LE(weak_load, strong_load);
}

// Parameterized sweep: the algorithm must produce valid placements across
// a grid of (span threshold, chunks, capacity) settings.
struct ApproxSweepParam {
  int span_threshold;
  int chunks;
  int capacity;
};

class ApproxSweepTest : public ::testing::TestWithParam<ApproxSweepParam> {};

TEST_P(ApproxSweepTest, ValidPlacement) {
  const auto param = GetParam();
  const Graph g = graph::make_grid(5, 5);
  const FairCachingProblem problem =
      make_problem(g, 12, param.chunks, param.capacity);
  ApproxConfig config;
  config.confl.span_threshold = param.span_threshold;
  ApproxFairCaching appx(config);
  const FairCachingResult result = appx.run(problem);

  ASSERT_EQ(result.placements.size(),
            static_cast<std::size_t>(param.chunks));
  EXPECT_EQ(result.state.used(12), 0);
  for (NodeId v = 0; v < 25; ++v) {
    EXPECT_LE(result.state.used(v), param.capacity);
  }
  const auto eval = result.evaluate(problem);
  EXPECT_GE(eval.total(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproxSweepTest,
    ::testing::Values(ApproxSweepParam{1, 3, 5}, ApproxSweepParam{2, 5, 5},
                      ApproxSweepParam{3, 5, 5}, ApproxSweepParam{4, 5, 5},
                      ApproxSweepParam{3, 1, 5}, ApproxSweepParam{3, 10, 3},
                      ApproxSweepParam{2, 7, 1}, ApproxSweepParam{5, 5, 5}));

}  // namespace
}  // namespace faircache::core
