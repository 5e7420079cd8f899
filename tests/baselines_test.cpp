// Tests for the Hopc / Cont baselines and the multi-item extension.

#include "baselines/greedy_topology.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "testutil.h"

namespace faircache::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

TEST(SelectCacheSetTest, NeverSelectsProducer) {
  const Graph g = graph::make_grid(4, 4);
  for (const auto metric :
       {BaselineMetric::kHopCount, BaselineMetric::kContention}) {
    const auto set = select_cache_set(g, 5, metric, 1.0);
    EXPECT_TRUE(std::find(set.begin(), set.end(), 5) == set.end());
  }
}

TEST(SelectCacheSetTest, PathBenefitsFromRemoteCache) {
  // Long path, producer at one end: a remote cache node must be selected.
  const Graph g = graph::make_path(15);
  const auto set = select_cache_set(g, 0, BaselineMetric::kHopCount, 1.0);
  ASSERT_FALSE(set.empty());
  bool has_far = false;
  for (NodeId v : set) has_far = has_far || v >= 7;
  EXPECT_TRUE(has_far);
}

TEST(SelectCacheSetTest, LoadFactorShrinksSelection) {
  const Graph g = graph::make_grid(6, 6);
  EXPECT_GE(select_cache_set(g, 9, BaselineMetric::kContention, 1.0).size(),
            select_cache_set(g, 9, BaselineMetric::kContention, 6.0).size());
}

TEST(SelectCacheSetTest, Deterministic) {
  const Graph g = graph::make_grid(5, 5);
  EXPECT_EQ(select_cache_set(g, 12, BaselineMetric::kContention, 1.0),
            select_cache_set(g, 12, BaselineMetric::kContention, 1.0));
}

TEST(GreedyTopologyTest, SameSetForEveryChunkWithinCapacity) {
  // The paper's observation: these schemes pick one set; all chunks (up to
  // capacity) land on exactly those nodes.
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);
  GreedyTopologyCaching cont(BaselineMetric::kContention);
  const auto result = cont.run(problem);

  ASSERT_EQ(result.placements.size(), 5u);
  for (std::size_t c = 1; c < result.placements.size(); ++c) {
    EXPECT_EQ(result.placements[c].cache_nodes,
              result.placements[0].cache_nodes);
  }
}

TEST(GreedyTopologyTest, ConcentratedLoadLowFairness) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);
  for (const auto metric :
       {BaselineMetric::kHopCount, BaselineMetric::kContention}) {
    GreedyTopologyCaching algo(metric);
    const auto result = algo.run(problem);
    const auto counts = result.state.stored_counts();
    // Baselines concentrate: high Gini, few loaded nodes.
    EXPECT_GT(metrics::gini_coefficient(counts), 0.7);
    int loaded = 0;
    for (int c : counts) loaded += c > 0 ? 1 : 0;
    EXPECT_LE(loaded, 10);
  }
}

TEST(GreedyTopologyTest, MultiItemRoundsMoveToFreshNodes) {
  // More chunks than one set's capacity: round 2 must use new nodes.
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 12, 6, 3);  // capacity 3, 6 chunks
  GreedyTopologyCaching cont;
  const auto result = cont.run(problem);

  const auto& first = result.placements[0].cache_nodes;
  const auto& fourth = result.placements[3].cache_nodes;
  ASSERT_FALSE(first.empty());
  if (!fourth.empty()) {
    // No overlap: round-2 nodes are disjoint from round-1 nodes.
    for (NodeId v : fourth) {
      EXPECT_TRUE(std::find(first.begin(), first.end(), v) == first.end());
    }
  }
  for (NodeId v = 0; v < 25; ++v) {
    EXPECT_LE(result.state.used(v), 3);
  }
}

TEST(GreedyTopologyTest, CapacityZeroPlacesNothing) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 4, 3, 0);
  GreedyTopologyCaching algo;
  const auto result = algo.run(problem);
  EXPECT_EQ(result.state.total_stored(), 0);
}

TEST(GreedyTopologyTest, NamesMatchPaper) {
  EXPECT_EQ(GreedyTopologyCaching(BaselineMetric::kHopCount).name(), "Hopc");
  EXPECT_EQ(GreedyTopologyCaching(BaselineMetric::kContention).name(), "Cont");
}

TEST(GreedyTopologyTest, PlacementsMatchState) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 5, 7, 4);
  GreedyTopologyCaching algo(BaselineMetric::kHopCount);
  const auto result = algo.run(problem);
  std::vector<int> per_node(16, 0);
  for (const auto& placement : result.placements) {
    for (NodeId v : placement.cache_nodes) {
      EXPECT_TRUE(result.state.holds(v, placement.chunk));
      ++per_node[static_cast<std::size_t>(v)];
    }
  }
  EXPECT_EQ(result.state.stored_counts(), per_node);
}

// Parameter sweep across topologies: valid placement everywhere.
class BaselineTopologyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineTopologyTest, ValidOnGrids) {
  const auto [rows, cols] = GetParam();
  const Graph g = graph::make_grid(rows, cols);
  const auto problem = make_problem(g, 0, 5, 5);
  for (const auto metric :
       {BaselineMetric::kHopCount, BaselineMetric::kContention}) {
    GreedyTopologyCaching algo(metric);
    const auto result = algo.run(problem);
    EXPECT_EQ(result.state.used(0), 0);  // producer clean
    const auto eval = result.evaluate(problem);
    EXPECT_GT(eval.total(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, BaselineTopologyTest,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(3, 3),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(2, 8),
                                           std::make_tuple(6, 6)));

}  // namespace
}  // namespace faircache::baselines
