// Unit tests for the metrics layer: cache state, fairness degree cost,
// contention costs, placement evaluation and fairness statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "graph/generators.h"
#include "metrics/cache_state.h"
#include "metrics/contention.h"
#include "metrics/evaluator.h"
#include "metrics/fairness.h"
#include "metrics/fairness_stats.h"
#include "metrics/latency_model.h"
#include "testutil.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace faircache::metrics {
namespace {

using graph::Graph;
using graph::make_grid;
using graph::make_path;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CacheStateTest, AddRemoveHold) {
  CacheState state(4, 2, /*producer=*/0);
  EXPECT_TRUE(state.can_cache(1, 0));
  state.add(1, 0);
  EXPECT_TRUE(state.holds(1, 0));
  EXPECT_EQ(state.used(1), 1);
  EXPECT_EQ(state.remaining(1), 1);
  EXPECT_FALSE(state.can_cache(1, 0));  // duplicate
  state.add(1, 3);
  EXPECT_TRUE(state.full(1));
  EXPECT_FALSE(state.can_cache(1, 2));  // full
  state.remove(1, 0);
  EXPECT_FALSE(state.holds(1, 0));
  EXPECT_TRUE(state.can_cache(1, 2));
}

TEST(CacheStateTest, ProducerNeverCaches) {
  CacheState state(4, 2, /*producer=*/2);
  EXPECT_FALSE(state.can_cache(2, 0));
  EXPECT_THROW(state.add(2, 0), util::CheckError);
}

TEST(CacheStateTest, HoldersSortedAndCounts) {
  CacheState state(5, 3, /*producer=*/0);
  state.add(3, 1);
  state.add(1, 1);
  state.add(4, 0);
  EXPECT_EQ(state.holders(1), (std::vector<graph::NodeId>{1, 3}));
  EXPECT_EQ(state.stored_counts(), (std::vector<int>{0, 1, 0, 1, 1}));
  EXPECT_EQ(state.total_stored(), 3);
}

TEST(CacheStateTest, HeterogeneousCapacities) {
  CacheState state({1, 2, 0, 5}, /*producer=*/3);
  EXPECT_EQ(state.capacity(0), 1);
  state.add(0, 0);
  EXPECT_TRUE(state.full(0));
  EXPECT_TRUE(state.full(2));  // zero capacity
}

TEST(FairnessTest, DegreeMatchesEquationOne) {
  CacheState state(3, 5, /*producer=*/0);
  // Empty: f = 0/(5-0) = 0.
  EXPECT_DOUBLE_EQ(fairness_degree(state, 1), 0.0);
  state.add(1, 0);
  EXPECT_DOUBLE_EQ(fairness_degree(state, 1), 1.0 / 4.0);
  state.add(1, 1);
  state.add(1, 2);
  state.add(1, 3);
  EXPECT_DOUBLE_EQ(fairness_degree(state, 1), 4.0);
  state.add(1, 4);
  EXPECT_EQ(fairness_degree(state, 1), kInf);  // full
}

TEST(FairnessTest, ProducerIsInfinite) {
  CacheState state(3, 5, /*producer=*/2);
  EXPECT_EQ(fairness_degree(state, 2), kInf);
}

TEST(FairnessTest, BatteryTermAddsWeightedCost) {
  CacheState state(2, 10, /*producer=*/0);
  FairnessModel::Config config;
  config.storage_weight = 1.0;
  config.battery_weight = 2.0;
  config.battery_per_chunk = 1.0;
  FairnessModel model(config);
  model.set_battery_budgets({100.0, 4.0});

  state.add(1, 0);
  state.add(1, 1);
  // storage: 2/8 = 0.25; battery: 2/(4-2) = 1.0 → cost = 0.25 + 2·1.0.
  EXPECT_DOUBLE_EQ(model.cost(state, 1), 0.25 + 2.0);
}

TEST(ContentionTest, NodeContentionIsDegree) {
  const Graph g = make_grid(3, 3);
  const auto w = node_contention(g);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
  EXPECT_DOUBLE_EQ(w[4], 4.0);
}

TEST(ContentionTest, WeightsIncludeStorageFactor) {
  const Graph g = make_grid(3, 3);
  CacheState state(9, 5, /*producer=*/0);
  state.add(4, 0);
  state.add(4, 1);
  const auto w = contention_weights(g, state);
  EXPECT_DOUBLE_EQ(w[4], 4.0 * 3.0);  // degree 4 × (1 + 2 chunks)
  EXPECT_DOUBLE_EQ(w[1], 3.0);
}

TEST(ContentionMatrixTest, PathCostOnLine) {
  // Path 0-1-2: degrees 1,2,1. Empty caches → weights 1,2,1.
  // c_02 = 1 + 2 + 1 = 4 (both endpoints included); c_00 = 0.
  const Graph g = make_path(3);
  CacheState state(3, 5, /*producer=*/0);
  const ContentionMatrix m(g, state);
  EXPECT_DOUBLE_EQ(m.cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.cost(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.cost(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.cost(2, 0), 4.0);  // symmetric on symmetric input
}

TEST(ContentionMatrixTest, CachedChunksRaiseCost) {
  const Graph g = make_path(3);
  CacheState state(3, 5, /*producer=*/0);
  const ContentionMatrix before(g, state);
  state.add(1, 0);
  const ContentionMatrix after(g, state);
  // Node 1's weight doubles (1+S = 2): c_02 = 1 + 4 + 1 = 6.
  EXPECT_DOUBLE_EQ(before.cost(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(after.cost(0, 2), 6.0);
}

TEST(ContentionMatrixTest, EdgeCostsAreEndpointWeights) {
  const Graph g = make_path(3);
  CacheState state(3, 5, /*producer=*/0);
  const ContentionMatrix m(g, state);
  const auto& ec = m.edge_costs();
  // Edge 0-1: w0 + w1 = 1 + 2 = 3; edge 1-2: 2 + 1 = 3.
  EXPECT_DOUBLE_EQ(ec[0], 3.0);
  EXPECT_DOUBLE_EQ(ec[1], 3.0);
}

// sim::simulate_dissemination_phase weights its trees with the O(m)
// contention_edge_costs instead of a full ContentionMatrix: the two must
// agree bit for bit on a loaded cache state.
TEST(ContentionMatrixTest, EdgeCostsMatchWeightOnlyEdgeCostsBitForBit) {
  util::Rng rng(13);
  const Graph grid = make_grid(6, 5);
  const Graph er = graph::make_erdos_renyi(40, 0.12, rng);
  for (const Graph* g : {&grid, &er}) {
    CacheState state(g->num_nodes(), 4, /*producer=*/0);
    for (int k = 0; k < 60; ++k) {
      const auto v = static_cast<graph::NodeId>(
          rng.bounded(static_cast<std::uint64_t>(g->num_nodes())));
      const auto chunk = static_cast<ChunkId>(k % 4);
      if (state.can_cache(v, chunk)) state.add(v, chunk);
    }
    const std::vector<double> direct =
        contention_edge_costs(*g, contention_weights(*g, state));
    const ContentionMatrix matrix(*g, state);
    const std::vector<double>& expected = matrix.edge_costs();
    ASSERT_EQ(direct.size(), static_cast<std::size_t>(g->num_edges()));
    ASSERT_EQ(direct.size(), expected.size());
    EXPECT_EQ(std::memcmp(direct.data(), expected.data(),
                          direct.size() * sizeof(double)),
              0);
  }
}

TEST(ContentionMatrixTest, HopAndMinContentionPoliciesDiffer) {
  // Square with a heavy node on one side: hop-shortest may route through
  // it; min-contention must not.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  CacheState state(4, 9, /*producer=*/0);
  // Load node 1 heavily.
  for (int c = 0; c < 8; ++c) state.add(1, c);

  const ContentionMatrix hop(g, state, PathPolicy::kHopShortest);
  const ContentionMatrix min(g, state, PathPolicy::kMinContention);
  // Hop policy ties 0-1-3 vs 0-2-3 → smallest-id parent = through 1 (heavy).
  EXPECT_GT(hop.cost(0, 3), min.cost(0, 3));
  // Min contention avoids node 1: 2 + 2 + 2 = 6.
  EXPECT_DOUBLE_EQ(min.cost(0, 3), 6.0);
}

TEST(EvaluatorTest, EmptyPlacementAllFromProducer) {
  const Graph g = make_path(3);
  CacheState state(3, 5, /*producer=*/0);
  EvaluatorOptions options;
  options.num_chunks = 1;
  const auto eval = evaluate_placement(g, state, options);
  // Node 1 pays c_01 = 3, node 2 pays c_02 = 4; producer pays 0.
  EXPECT_DOUBLE_EQ(eval.access_cost, 7.0);
  EXPECT_DOUBLE_EQ(eval.dissemination_cost, 0.0);  // no holders
  EXPECT_EQ(eval.per_chunk[0].assignment[1], 0);
  EXPECT_EQ(eval.per_chunk[0].assignment[0], 0);
}

TEST(EvaluatorTest, CachedCopyReducesAccessCost) {
  const Graph g = make_path(5);
  CacheState state(5, 5, /*producer=*/0);
  state.add(4, 0);
  EvaluatorOptions options;
  options.num_chunks = 1;
  const auto eval = evaluate_placement(g, state, options);
  // Node 4 serves itself (cost 0) and node 3 cheaper than the producer.
  EXPECT_EQ(eval.per_chunk[0].assignment[4], 4);
  EXPECT_EQ(eval.per_chunk[0].assignment[3], 4);
  EXPECT_EQ(eval.per_chunk[0].assignment[1], 0);
  // Dissemination: Steiner tree 0→4 spans the whole path.
  EXPECT_GT(eval.dissemination_cost, 0.0);
}

TEST(EvaluatorTest, PerChunkTotalsSum) {
  const Graph g = make_grid(3, 3);
  CacheState state(9, 5, /*producer=*/0);
  state.add(4, 0);
  state.add(8, 1);
  EvaluatorOptions options;
  options.num_chunks = 2;
  const auto eval = evaluate_placement(g, state, options);
  double access = 0.0;
  double dissemination = 0.0;
  for (const auto& chunk : eval.per_chunk) {
    access += chunk.access_cost;
    dissemination += chunk.dissemination_cost;
  }
  EXPECT_DOUBLE_EQ(eval.access_cost, access);
  EXPECT_DOUBLE_EQ(eval.dissemination_cost, dissemination);
  EXPECT_DOUBLE_EQ(eval.total(), access + dissemination);
}

TEST(EvaluatorTest, AssignmentsAlwaysPointAtCopies) {
  // Property: for random placements, every node's assigned source either
  // holds the chunk or is the producer, and its cost is minimal among all
  // copies.
  util::Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_grid(4, 4);
    CacheState state(16, 3, /*producer=*/5);
    for (int placements = 0; placements < 8; ++placements) {
      const auto v = static_cast<graph::NodeId>(rng.bounded(16));
      const auto chunk = static_cast<ChunkId>(rng.bounded(3));
      if (state.can_cache(v, chunk)) state.add(v, chunk);
    }
    EvaluatorOptions options;
    options.num_chunks = 3;
    const auto eval = evaluate_placement(g, state, options);
    const ContentionMatrix m(g, state);
    for (const auto& ce : eval.per_chunk) {
      for (graph::NodeId j = 0; j < 16; ++j) {
        const graph::NodeId source =
            ce.assignment[static_cast<std::size_t>(j)];
        EXPECT_TRUE(source == 5 || state.holds(source, ce.chunk));
        for (graph::NodeId alt : state.holders(ce.chunk)) {
          EXPECT_LE(m.cost(source, j), m.cost(alt, j) + 1e-9);
        }
      }
    }
  }
}

// FNV-1a over each chunk's id, access and dissemination cost bits and
// assignment, then the two totals.
std::uint64_t evaluation_hash(const PlacementEvaluation& eval) {
  util::Fnv1a h;
  for (const ChunkEvaluation& ce : eval.per_chunk) {
    h.value(ce.chunk).value(ce.access_cost).value(ce.dissemination_cost);
    h.bytes(ce.assignment.data(),
            ce.assignment.size() * sizeof(graph::NodeId));
  }
  return h.value(eval.access_cost).value(eval.dissemination_cost).digest();
}

// A random placement of `chunks` chunks at capacity 2 in which node
// `twice` holds both chunk 0 and chunk 1.
CacheState random_placement(const Graph& g, graph::NodeId producer,
                            int chunks, graph::NodeId twice,
                            util::Rng& rng) {
  CacheState state(g.num_nodes(), 2, producer);
  state.add(twice, 0);
  state.add(twice, 1);
  for (int k = 0; k < 3 * g.num_nodes() / 2; ++k) {
    const auto v = static_cast<graph::NodeId>(rng.bounded(
        static_cast<std::uint64_t>(g.num_nodes())));
    const auto chunk = static_cast<ChunkId>(
        rng.bounded(static_cast<std::uint64_t>(chunks)));
    if (state.can_cache(v, chunk)) state.add(v, chunk);
  }
  return state;
}

// Pinned evaluator output: per-chunk cost bits and assignments on a grid
// and a small-world graph, under the paper's model and with each option
// (path policy, liveness mask, demand weights) on its own and all at once.
// Recorded before scoring moved to the shared per-source sweep.
TEST(EvaluatorTest, PinnedGolden) {
  util::Rng rng(1234);
  const Graph grid = make_grid(7, 7);
  const Graph ws = graph::make_watts_strogatz(80, 4, 0.3, rng);
  struct Fixture {
    const Graph* g;
    graph::NodeId producer;
    graph::NodeId twice;
  };
  const int chunks = 4;
  std::vector<CacheState> states;
  std::vector<std::vector<char>> alive;
  std::vector<std::vector<std::vector<double>>> demand;
  const std::vector<Fixture> fixtures{{&grid, 24, 10}, {&ws, 3, 41}};
  for (const Fixture& f : fixtures) {
    states.push_back(random_placement(*f.g, f.producer, chunks, f.twice, rng));
    const auto n = static_cast<std::size_t>(f.g->num_nodes());
    std::vector<char> mask(n, 1);
    mask[static_cast<std::size_t>(f.twice)] = 0;  // a dead double holder
    for (std::size_t v = 0; v < n; v += 7) mask[v] = 0;
    mask[static_cast<std::size_t>(f.producer)] = 1;
    alive.push_back(std::move(mask));
    std::vector<std::vector<double>> d(static_cast<std::size_t>(chunks),
                                       std::vector<double>(n));
    for (auto& row : d) {
      for (double& x : row) x = rng.uniform(0.0, 3.0);
    }
    demand.push_back(std::move(d));
  }
  const auto run = [&] {
    util::Fnv1a h;
    for (std::size_t f = 0; f < fixtures.size(); ++f) {
      for (int variant = 0; variant < 5; ++variant) {
        EvaluatorOptions options;
        options.num_chunks = chunks;
        if (variant == 1 || variant == 4) {
          options.path_policy = PathPolicy::kMinContention;
        }
        if (variant == 2 || variant == 4) options.alive = &alive[f];
        if (variant == 3 || variant == 4) options.access_demand = &demand[f];
        h.value(evaluation_hash(
            evaluate_placement(*fixtures[f].g, states[f], options)));
      }
    }
    return h.digest();
  };
  EXPECT_EQ(testutil::expect_thread_invariant(run), 0x440381d22f363909ULL);
}

// A liveness mask or demand row shorter than the node count is rejected
// instead of read out of bounds.
TEST(EvaluatorTest, ShortOptionVectorsRejected) {
  const Graph g = make_grid(3, 3);
  CacheState state(9, 2, /*producer=*/0);
  state.add(4, 0);
  EvaluatorOptions options;
  options.num_chunks = 1;
  const std::vector<char> short_alive(8, 1);
  options.alive = &short_alive;
  EXPECT_THROW(evaluate_placement(g, state, options), util::CheckError);
  options.alive = nullptr;
  const std::vector<std::vector<double>> short_demand{
      std::vector<double>(8, 1.0)};
  options.access_demand = &short_demand;
  EXPECT_THROW(evaluate_placement(g, state, options), util::CheckError);
  const std::vector<std::vector<double>> no_rows;
  options.access_demand = &no_rows;
  EXPECT_THROW(evaluate_placement(g, state, options), util::CheckError);
}

TEST(FairnessStatsTest, GiniZeroForUniform) {
  EXPECT_DOUBLE_EQ(gini_coefficient({3, 3, 3, 3}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({0, 0, 0}), 0.0);
}

TEST(FairnessStatsTest, GiniKnownValues) {
  // One node holds everything among n=4: G = (n-1)/n = 0.75.
  EXPECT_NEAR(gini_coefficient({8, 0, 0, 0}), 0.75, 1e-12);
  // Two of four: G = 0.5.
  EXPECT_NEAR(gini_coefficient({4, 4, 0, 0}), 0.5, 1e-12);
}

TEST(FairnessStatsTest, GiniMatchesNaiveFormula) {
  const std::vector<int> counts{5, 1, 0, 3, 3, 0, 2};
  double num = 0.0;
  double den = 0.0;
  for (int a : counts) {
    for (int b : counts) {
      num += std::abs(a - b);
      den += b;
    }
  }
  const double naive = num / (2.0 * den);
  EXPECT_NEAR(gini_coefficient(counts), naive, 1e-12);
}

TEST(FairnessStatsTest, PercentileFairness) {
  // 4 nodes, loads 5,3,1,1 (total 10). 50% needs 5 → 1 node → 0.25.
  const std::vector<int> counts{5, 3, 1, 1};
  EXPECT_EQ(nodes_for_percent(counts, 50.0), 1);
  EXPECT_DOUBLE_EQ(percentile_fairness(counts, 50.0), 0.25);
  // 75% needs 7.5 → nodes 5+3 → 2 nodes.
  EXPECT_EQ(nodes_for_percent(counts, 75.0), 2);
  // 100% needs all loaded nodes (zeros not needed).
  EXPECT_EQ(nodes_for_percent(counts, 100.0), 4);
}

TEST(FairnessStatsTest, PercentileIdealUniform) {
  // Uniform load: p-percentile fairness ≈ p%.
  const std::vector<int> counts(20, 2);
  EXPECT_NEAR(percentile_fairness(counts, 75.0), 0.75, 0.05);
}

TEST(FairnessStatsTest, CumulativeCurveMonotone) {
  const std::vector<int> counts{4, 1, 0, 2, 3};
  const auto curve = cumulative_load_curve(counts);
  ASSERT_EQ(curve.size(), counts.size());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  EXPECT_DOUBLE_EQ(curve.back(), 1.0);
  EXPECT_DOUBLE_EQ(curve.front(), 0.4);
}

TEST(FairnessStatsTest, JainsIndexBounds) {
  EXPECT_DOUBLE_EQ(jains_index({2, 2, 2}), 1.0);
  EXPECT_NEAR(jains_index({6, 0, 0}), 1.0 / 3.0, 1e-12);
}

TEST(LatencyModelTest, HopDelayComponents) {
  const Graph g = make_grid(3, 3);
  CacheState state(9, 5, /*producer=*/0);
  DcfParameters params;
  // Center node, empty cache: DIFS + degree·T_d.
  EXPECT_DOUBLE_EQ(hop_delay_us(g, state, 4, params),
                   params.difs_us + 4.0 * params.data_us);
  state.add(4, 0);
  // One chunk: + slot + collision.
  EXPECT_DOUBLE_EQ(hop_delay_us(g, state, 4, params),
                   params.difs_us + params.slot_us + 4.0 * params.data_us +
                       params.collision_us);
}

TEST(LatencyModelTest, PathDelaySumsHops) {
  const Graph g = make_path(3);
  CacheState state(3, 5, /*producer=*/0);
  const std::vector<graph::NodeId> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(path_delay_us(g, state, path),
                   hop_delay_us(g, state, 0) + hop_delay_us(g, state, 1) +
                       hop_delay_us(g, state, 2));
}

TEST(LatencyModelTest, ContentionLinearization) {
  DcfParameters params;
  EXPECT_DOUBLE_EQ(contention_to_delay_us(10.0, 3, params),
                   3 * params.difs_us + 10.0 * params.data_us);
}

}  // namespace
}  // namespace faircache::metrics
