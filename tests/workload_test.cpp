// Tests for the workload generation (Zipf demand, traces), the
// demand-weighted ConFL/evaluator paths, and the reactive popularity
// caching baseline.

#include <gtest/gtest.h>

#include "baselines/popularity.h"
#include "core/approx.h"
#include "graph/generators.h"
#include "metrics/evaluator.h"
#include "sim/workload.h"
#include "testutil.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  const sim::ZipfDistribution zipf(10, 1.0);
  double sum = 0.0;
  for (int k = 0; k < 10; ++k) {
    sum += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Rank 0 twice as likely as rank 1 at s = 1.
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(1), 2.0, 1e-9);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  const sim::ZipfDistribution zipf(8, 0.0);
  for (int k = 0; k < 8; ++k) {
    EXPECT_NEAR(zipf.pmf(k), 1.0 / 8.0, 1e-12);
  }
}

TEST(ZipfTest, SampleFrequenciesFollowPmf) {
  const sim::ZipfDistribution zipf(5, 1.2);
  util::Rng rng(9);
  std::vector<int> histogram(5, 0);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) ++histogram[zipf.sample(rng)];
  for (int k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(histogram[k]) / kSamples, zipf.pmf(k),
                0.02);
  }
}

TEST(DemandTest, MatrixShapeAndPositivity) {
  util::Rng rng(3);
  sim::DemandConfig config;
  config.num_nodes = 9;
  config.num_chunks = 4;
  const auto demand = sim::generate_zipf_demand(config, rng);
  ASSERT_EQ(demand.size(), 4u);
  for (const auto& row : demand) {
    ASSERT_EQ(row.size(), 9u);
    for (double d : row) EXPECT_GT(d, 0.0);
  }
}

TEST(DemandTest, GlobalRankingOrdersChunks) {
  util::Rng rng(4);
  sim::DemandConfig config;
  config.num_nodes = 20;
  config.num_chunks = 5;
  config.zipf_exponent = 1.0;
  config.per_node_ranking = false;
  const auto demand = sim::generate_zipf_demand(config, rng);
  // Chunk 0 (rank 0) has the highest total demand.
  double previous = 1e18;
  for (const auto& row : demand) {
    double total = 0.0;
    for (double d : row) total += d;
    EXPECT_LE(total, previous + 1e-9);
    previous = total;
  }
}

TEST(TraceTest, RespectsSupportAndLength) {
  util::Rng rng(5);
  sim::DemandMatrix demand{{0.0, 1.0}, {0.0, 0.0}};
  const auto trace = sim::sample_trace(demand, 100, rng);
  ASSERT_EQ(trace.size(), 100u);
  for (const auto& request : trace) {
    EXPECT_EQ(request.chunk, 0);  // only (chunk 0, node 1) has mass
    EXPECT_EQ(request.node, 1);
  }
}

TEST(TraceSamplerTest, FixedSeedPinsDrawSequence) {
  // Regression pin for the lower_bound → upper_bound sampler fix: with a
  // demand matrix full of zero-width cells (including a trailing
  // zero-demand block), a fixed seed must reproduce exactly this request
  // stream — and never a zero-demand (chunk, node) pair. The old
  // lower_bound inversion could land on zero-width cells whenever a draw
  // hit a shared CDF boundary, and could walk off the CDF entirely when
  // the draw reached the total mass.
  const sim::DemandMatrix demand{{0.0, 2.0, 0.0, 1.0},
                                 {0.5, 0.0, 0.0, 3.0},
                                 {0.0, 1.5, 0.0, 0.0}};
  sim::TraceSampler sampler(demand);
  EXPECT_DOUBLE_EQ(sampler.total_mass(), 8.0);
  util::Rng rng(42);
  const std::vector<std::pair<int, int>> expected{
      {0, 1}, {1, 0}, {1, 3}, {2, 1}, {2, 1}, {1, 3}, {1, 3}, {2, 1},
      {1, 3}, {1, 3}, {1, 3}, {0, 3}, {1, 3}, {0, 3}, {1, 3}, {2, 1},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const sim::Request r = sampler.draw(rng);
    EXPECT_EQ(r.chunk, expected[i].first) << "draw " << i;
    EXPECT_EQ(r.node, expected[i].second) << "draw " << i;
  }
}

TEST(TraceSamplerTest, NeverSelectsZeroDemandCells) {
  // Alternating zero cells everywhere, plus an all-zero chunk row.
  const sim::DemandMatrix demand{{1.0, 0.0, 1.0, 0.0},
                                 {0.0, 0.0, 0.0, 0.0},
                                 {0.0, 2.0, 0.0, 2.0}};
  sim::TraceSampler sampler(demand);
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const sim::Request r = sampler.draw(rng);
    ASSERT_GT(demand[static_cast<std::size_t>(r.chunk)]
                    [static_cast<std::size_t>(r.node)],
              0.0)
        << "chunk " << r.chunk << " node " << r.node;
  }
}

TEST(TraceSamplerTest, SingleCellAlwaysWinsEvenAtBoundary) {
  // One positive cell buried between zero-demand cells: every draw —
  // including any that rounds up to the full total mass — must clamp to
  // it rather than index past the CDF.
  const sim::DemandMatrix demand{{0.0, 0.0, 1e-9, 0.0, 0.0}};
  sim::TraceSampler sampler(demand);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const sim::Request r = sampler.draw(rng);
    ASSERT_EQ(r.chunk, 0);
    ASSERT_EQ(r.node, 2);
  }
}

TEST(TraceSamplerTest, FrequenciesFollowDemand) {
  const sim::DemandMatrix demand{{3.0, 1.0}, {0.0, 4.0}};
  sim::TraceSampler sampler(demand);
  util::Rng rng(13);
  constexpr int kDraws = 40000;
  int counts[2][2] = {{0, 0}, {0, 0}};
  for (int i = 0; i < kDraws; ++i) {
    const sim::Request r = sampler.draw(rng);
    ++counts[r.chunk][r.node];
  }
  EXPECT_NEAR(static_cast<double>(counts[0][0]) / kDraws, 3.0 / 8.0, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[0][1]) / kDraws, 1.0 / 8.0, 0.02);
  EXPECT_EQ(counts[1][0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1][1]) / kDraws, 4.0 / 8.0, 0.02);
}

TEST(DemandWeightedEvaluatorTest, WeightsScaleAccessCost) {
  const Graph g = graph::make_path(3);
  metrics::CacheState state(3, 5, 0);
  metrics::EvaluatorOptions base;
  base.num_chunks = 1;
  const auto uniform = metrics::evaluate_placement(g, state, base);

  sim::DemandMatrix demand{{0.0, 2.0, 2.0}};
  metrics::EvaluatorOptions weighted = base;
  weighted.access_demand = &demand;
  const auto doubled = metrics::evaluate_placement(g, state, weighted);
  EXPECT_NEAR(doubled.access_cost, 2.0 * uniform.access_cost, 1e-9);
}

TEST(DemandAwarePlacementTest, FacilitiesFollowDemandHotspot) {
  // Long path, producer at node 0. All demand sits at the far end: the
  // demand-aware placement must open a facility in the far half.
  const Graph g = graph::make_path(14);
  auto problem = make_problem(g, 0, 1, 5);

  sim::DemandMatrix demand(1, std::vector<double>(14, 0.05));
  for (int v = 10; v < 14; ++v) demand[0][static_cast<std::size_t>(v)] = 5.0;

  core::ApproxConfig config;
  config.instance.demand = &demand;
  core::ApproxFairCaching appx(config);
  const auto result = appx.run(problem);
  ASSERT_FALSE(result.placements[0].cache_nodes.empty());
  bool far_half = false;
  for (NodeId v : result.placements[0].cache_nodes) far_half |= v >= 7;
  EXPECT_TRUE(far_half);
}

TEST(PopularityCachingTest, CachesOnlyAfterThreshold) {
  const Graph g = graph::make_path(5);
  const auto problem = make_problem(g, 0, 2, 5);
  baselines::PopularityCaching cache(problem, {.request_threshold = 3});

  const sim::Request request{4, 0};
  auto outcome = cache.process(request);
  EXPECT_FALSE(outcome.cache_hit);  // producer serve
  EXPECT_TRUE(outcome.newly_cached_at.empty());
  cache.process(request);
  outcome = cache.process(request);  // third sighting crosses T = 3
  EXPECT_FALSE(outcome.newly_cached_at.empty());
  EXPECT_GT(cache.state().total_stored(), 0);
}

TEST(PopularityCachingTest, HitsAfterCaching) {
  const Graph g = graph::make_path(6);
  const auto problem = make_problem(g, 0, 1, 5);
  baselines::PopularityCaching cache(problem, {.request_threshold = 1});
  cache.process({5, 0});  // caches along the whole path
  const auto outcome = cache.process({5, 0});
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(outcome.hops, 0);  // node 5 now holds the chunk itself
}

TEST(PopularityCachingTest, ProducerNeverCaches) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 4, 3, 5);
  baselines::PopularityCaching cache(problem, {.request_threshold = 1});
  util::Rng rng(8);
  sim::DemandConfig dc;
  dc.num_nodes = 9;
  dc.num_chunks = 3;
  const auto trace =
      sim::sample_trace(sim::generate_zipf_demand(dc, rng), 200, rng);
  cache.replay(trace);
  EXPECT_EQ(cache.state().used(4), 0);
  EXPECT_EQ(cache.requests_processed(), 200);
  EXPECT_GT(cache.hit_ratio(), 0.2);
}

TEST(PopularityCachingTest, CapacityRespected) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 4, 6, 2);
  baselines::PopularityCaching cache(problem, {.request_threshold = 1});
  util::Rng rng(13);
  sim::DemandConfig dc;
  dc.num_nodes = 9;
  dc.num_chunks = 6;
  const auto trace =
      sim::sample_trace(sim::generate_zipf_demand(dc, rng), 500, rng);
  cache.replay(trace);
  for (NodeId v = 0; v < 9; ++v) {
    EXPECT_LE(cache.state().used(v), 2);
  }
}

}  // namespace
}  // namespace faircache
