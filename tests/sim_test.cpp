// Tests for the message bus and the distributed algorithm (Algorithm 2).

#include "sim/distributed.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "sim/messages.h"
#include "sim/mobility.h"
#include "testutil.h"

namespace faircache::sim {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

// --- evaluate_robustness edge cases (the inputs churn produces). ---

TEST(RobustnessEvalTest, DisconnectedSnapshotCountsUnreachablePairs) {
  // Two components: {0,1} with the producer, {2,3} with a replica of
  // chunk 0 only. Chunk 1 is unreachable from the far component.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  metrics::CacheState state(4, 2, 0);
  state.add(2, 0);

  const PlacementRobustness r = evaluate_robustness(g, state, 2);
  // Pairs: 3 consumers × 2 chunks. Unreachable: (3, chunk reachable via
  // holder 2) is fine; chunk 1 unreachable from both 2 and 3.
  EXPECT_EQ(r.pairs, 6);
  EXPECT_EQ(r.reachable_pairs, 4);
  EXPECT_DOUBLE_EQ(r.reachable_fraction, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(r.mean_hops, (1 + 0 + 1 + 1) / 4.0);
}

TEST(RobustnessEvalTest, EmptyPlacementMeasuresDistanceToProducerAlone) {
  const Graph g = graph::make_path(4);  // 0-1-2-3, producer at 0
  metrics::CacheState state(4, 1, 0);
  const PlacementRobustness r = evaluate_robustness(g, state, 1);
  EXPECT_EQ(r.pairs, 3);
  EXPECT_EQ(r.reachable_pairs, 3);
  EXPECT_DOUBLE_EQ(r.reachable_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_hops, (1 + 2 + 3) / 3.0);
}

TEST(RobustnessEvalTest, ZeroPairsReportsFullReachability) {
  // A default CacheState has no nodes and an invalid producer; with an
  // empty snapshot there is nothing to measure and nothing to crash on.
  const Graph g(0);
  const metrics::CacheState state;
  const PlacementRobustness r = evaluate_robustness(g, state, 3);
  EXPECT_EQ(r.pairs, 0);
  EXPECT_DOUBLE_EQ(r.reachable_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_hops, 0.0);

  // Zero chunks on a real graph is equally trivial.
  const Graph ring = graph::make_ring(5);
  const metrics::CacheState empty(5, 1, 0);
  const PlacementRobustness zero = evaluate_robustness(ring, empty, 0);
  EXPECT_EQ(zero.pairs, 0);
  EXPECT_DOUBLE_EQ(zero.reachable_fraction, 1.0);
}

TEST(RobustnessEvalTest, AliveMaskExcludesSourcesConsumersAndRelays) {
  const Graph g = graph::make_path(4);  // 0-1-2-3, producer at 0
  metrics::CacheState state(4, 1, 0);
  state.add(3, 0);
  std::vector<char> alive = {1, 0, 1, 1};

  // Node 1 is dead: it is not a consumer (2 pairs remain), it cannot relay
  // (2 is cut off from the producer) — but holder 3 still serves 2.
  const PlacementRobustness r = evaluate_robustness(g, state, 1, &alive);
  EXPECT_EQ(r.pairs, 2);
  EXPECT_EQ(r.reachable_pairs, 2);
  EXPECT_DOUBLE_EQ(r.mean_hops, (1 + 0) / 2.0);

  // Kill the holder too: its copy no longer counts as a source.
  alive[3] = 0;
  const PlacementRobustness gone = evaluate_robustness(g, state, 1, &alive);
  EXPECT_EQ(gone.pairs, 1);  // only node 2 consumes
  EXPECT_EQ(gone.reachable_pairs, 0);
  EXPECT_DOUBLE_EQ(gone.reachable_fraction, 0.0);
  EXPECT_DOUBLE_EQ(gone.mean_hops, 0.0);
}

TEST(MessageBusTest, DeliversInSendOrderNextRound) {
  MessageBus bus;
  bus.send({MessageType::kTight, 1, 2, 0, graph::kInvalidNode, 0.0});
  bus.send({MessageType::kSpan, 3, 2, 0, graph::kInvalidNode, 0.0});
  EXPECT_FALSE(bus.idle());
  const auto batch = bus.deliver_round();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].type, MessageType::kTight);
  EXPECT_EQ(batch[1].from, 3);
  EXPECT_TRUE(bus.idle());
  EXPECT_TRUE(bus.deliver_round().empty());
}

TEST(MessageBusTest, CountsPerType) {
  MessageBus bus;
  bus.send({MessageType::kNpi, 0, 1, 0, graph::kInvalidNode, 0.0});
  bus.send({MessageType::kNpi, 0, 2, 0, graph::kInvalidNode, 0.0});
  bus.send({MessageType::kFreeze, 1, 2, 0, 0, 0.0});
  EXPECT_EQ(bus.stats().count(MessageType::kNpi), 2);
  EXPECT_EQ(bus.stats().count(MessageType::kFreeze), 1);
  EXPECT_EQ(bus.stats().total(), 3);
}

TEST(MessageStatsTest, AggregationAndNames) {
  MessageStats a;
  a.sent[static_cast<std::size_t>(MessageType::kTight)] = 3;
  MessageStats b;
  b.sent[static_cast<std::size_t>(MessageType::kTight)] = 4;
  a += b;
  EXPECT_EQ(a.count(MessageType::kTight), 7);
  EXPECT_STREQ(to_string(MessageType::kBadmin), "BADMIN");
}

TEST(DistributedTest, TerminatesAndPlacesChunks) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);
  DistributedFairCaching dist;
  const auto result = dist.run(problem);
  ASSERT_EQ(result.placements.size(), 5u);
  EXPECT_GT(result.state.total_stored(), 0);
  EXPECT_EQ(result.state.used(9), 0);  // producer
  EXPECT_GT(dist.total_rounds(), 0);
}

TEST(DistributedTest, FairnessComparableToApprox) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);
  DistributedFairCaching dist;
  const auto result = dist.run(problem);
  EXPECT_LT(metrics::gini_coefficient(result.state.stored_counts()), 0.45);
}

TEST(DistributedTest, Deterministic) {
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 12, 3, 5);
  DistributedFairCaching a;
  DistributedFairCaching b;
  const auto ra = a.run(problem);
  const auto rb = b.run(problem);
  for (std::size_t c = 0; c < ra.placements.size(); ++c) {
    EXPECT_EQ(ra.placements[c].cache_nodes, rb.placements[c].cache_nodes);
  }
  EXPECT_EQ(a.message_stats().total(), b.message_stats().total());
}

TEST(DistributedTest, MessageTypesPresent) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 2, 5);
  DistributedFairCaching dist;
  dist.run(problem);
  const MessageStats& stats = dist.message_stats();
  // NPI: one per (chunk, non-producer node).
  EXPECT_EQ(stats.count(MessageType::kNpi), 2 * 35);
  EXPECT_GT(stats.count(MessageType::kCc), 0);
  EXPECT_EQ(stats.count(MessageType::kCc), stats.count(MessageType::kCcReply));
  EXPECT_GT(stats.count(MessageType::kTight), 0);
  EXPECT_GT(stats.count(MessageType::kFreeze), 0);
}

TEST(DistributedTest, OneHopLimitConcentratesSelection) {
  // Paper Fig. 3: with a 1-hop limit nodes know too little and few caching
  // nodes are selected, raising the access cost versus k ≥ 2.
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  DistributedConfig one;
  one.hop_limit = 1;
  DistributedFairCaching dist1(one);
  const auto r1 = dist1.run(problem);

  DistributedConfig two;
  two.hop_limit = 2;
  DistributedFairCaching dist2(two);
  const auto r2 = dist2.run(problem);

  EXPECT_LE(r1.state.total_stored(), r2.state.total_stored());
}

TEST(DistributedTest, HugeSpanThresholdYieldsProducerOnly) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 5, 2, 5);
  DistributedConfig config;
  config.span_threshold = 1000;
  DistributedFairCaching dist(config);
  const auto result = dist.run(problem);
  EXPECT_EQ(result.state.total_stored(), 0);
  // NADMIN/BADMIN never sent.
  EXPECT_EQ(dist.message_stats().count(MessageType::kNadmin), 0);
  EXPECT_EQ(dist.message_stats().count(MessageType::kBadmin), 0);
}

TEST(DistributedTest, RespectsCapacity) {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 8, 2);
  DistributedFairCaching dist;
  const auto result = dist.run(problem);
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_LE(result.state.used(v), 2);
  }
}

// Message complexity sweep (Table II / §IV-D): total messages grow like
// O(QN + N²·k-neighborhood), i.e. subquadratically in N for fixed k per
// chunk; verify the count at 2N nodes is well under 8× the count at N
// (quadratic would be ≈4×, but CC dominates at ~linear × neighborhood).
class MessageComplexityTest : public ::testing::TestWithParam<int> {};

TEST_P(MessageComplexityTest, GrowthIsPolynomialNotExplosive) {
  const int side = GetParam();
  const Graph small = graph::make_grid(side, side);
  const Graph large = graph::make_grid(side * 2, side * 2);

  const auto p_small = make_problem(small, 0, 3, 5);
  const auto p_large = make_problem(large, 0, 3, 5);

  DistributedFairCaching a;
  a.run(p_small);
  const long m_small = a.message_stats().total();

  DistributedFairCaching b;
  b.run(p_large);
  const long m_large = b.message_stats().total();

  EXPECT_GT(m_small, 0);
  // 4× nodes; allow up to ~10× messages (quadratic-ish), flag explosions.
  EXPECT_LT(m_large, 10 * m_small);
}

INSTANTIATE_TEST_SUITE_P(GridDoubling, MessageComplexityTest,
                         ::testing::Values(3, 4, 5));

}  // namespace
}  // namespace faircache::sim
