// Unit + property tests for Steiner tree construction: Mehlhorn's
// Voronoi-partition 2-approximation against the exact Dreyfus–Wagner
// oracle, the batched entry against per-set calls, plus the leaf-prune
// helper.

#include "steiner/steiner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "graph/generators.h"
#include "metrics/contention.h"
#include "testutil.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace faircache::steiner {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::make_grid;
using graph::NodeId;

std::vector<double> unit_weights(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_edges()), 1.0);
}

// Verifies the returned edge set is a tree spanning all terminals.
void expect_valid_tree(const Graph& g, const SteinerTree& tree,
                       const std::vector<NodeId>& terminals) {
  // Build the tree subgraph and check connectivity over terminals + acyclic.
  std::set<NodeId> nodes;
  for (EdgeId e : tree.edges) {
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
  }
  for (NodeId t : terminals) {
    if (terminals.size() > 1) {
      EXPECT_TRUE(nodes.count(t)) << "terminal " << t << " not in tree";
    }
  }
  // A tree with k nodes has k−1 edges.
  if (!tree.edges.empty()) {
    EXPECT_EQ(nodes.size(), tree.edges.size() + 1);
  }
}

TEST(SteinerApproxTest, SingleTerminalEmptyTree) {
  const Graph g = make_grid(3, 3);
  const auto tree = try_steiner_mst_approx(g, unit_weights(g), {4}).value();
  EXPECT_TRUE(tree.edges.empty());
  EXPECT_DOUBLE_EQ(tree.cost, 0.0);
}

TEST(SteinerApproxTest, TwoTerminalsIsShortestPath) {
  const Graph g = make_grid(3, 3);
  const auto tree = try_steiner_mst_approx(g, unit_weights(g), {0, 8}).value();
  EXPECT_DOUBLE_EQ(tree.cost, 4.0);  // 4 hops across the grid
  expect_valid_tree(g, tree, {0, 8});
}

TEST(SteinerApproxTest, DuplicateTerminalsDeduplicated) {
  const Graph g = make_grid(3, 3);
  const auto tree =
      try_steiner_mst_approx(g, unit_weights(g), {0, 8, 0, 8}).value();
  EXPECT_DOUBLE_EQ(tree.cost, 4.0);
}

TEST(SteinerApproxTest, CornersOfGridUseSteinerNodes) {
  // All four corners of a 3×3 grid: optimum is 6 (e.g. the boundary "C"
  // 2-0-6 plus 6-8 uses two corners as Steiner points), and the tree must
  // touch intermediate non-terminal nodes.
  const Graph g = make_grid(3, 3);
  const std::vector<NodeId> corners{0, 2, 6, 8};
  const auto tree = try_steiner_mst_approx(g, unit_weights(g), corners).value();
  expect_valid_tree(g, tree, corners);
  EXPECT_GE(tree.cost, 6.0 - 1e-9);
  EXPECT_LE(tree.cost, 2.0 * 6.0 + 1e-9);  // 2-approx bound
}

TEST(SteinerApproxTest, WeightedAvoidsExpensiveEdges) {
  // Triangle 0-1-2 plus path 0-3-2; direct edge 0-2 very expensive.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e02 = g.add_edge(0, 2);
  const EdgeId e03 = g.add_edge(0, 3);
  const EdgeId e32 = g.add_edge(3, 2);
  std::vector<double> w(5, 0.0);
  w[static_cast<std::size_t>(e01)] = 5.0;
  w[static_cast<std::size_t>(e12)] = 5.0;
  w[static_cast<std::size_t>(e02)] = 100.0;
  w[static_cast<std::size_t>(e03)] = 1.0;
  w[static_cast<std::size_t>(e32)] = 1.0;
  const auto tree = try_steiner_mst_approx(g, w, {0, 2}).value();
  EXPECT_DOUBLE_EQ(tree.cost, 2.0);  // through node 3
}

TEST(SteinerApproxTest, DisconnectedTerminalsRejected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(try_steiner_mst_approx(g, unit_weights(g), {0, 3}).code(),
            util::StatusCode::kInfeasible);
}

// Pinned deterministic outputs: edge sets and cost bit patterns. The
// evaluator, sim/traffic, the baselines, the exact local search and ConFL
// Phase 2 all build their trees here, so any change is a behaviour change,
// not a refactor.
TEST(SteinerApproxTest, PinnedDeterministicOutputs) {
  {
    const Graph g = make_grid(3, 3);
    const auto tree =
        try_steiner_mst_approx(g, unit_weights(g), {0, 2, 6, 8}).value();
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{0, 1, 2, 4, 6, 9}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x4018000000000000ULL);  // 6.0
  }
  {
    util::Rng rng(7);
    const Graph g = make_grid(4, 4);
    std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
    for (auto& x : w) x = rng.uniform(0.5, 4.0);
    const auto tree = try_steiner_mst_approx(g, w, {0, 5, 10, 15}).value();
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{1, 7, 10, 16, 18, 20}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x40209072dc3aa384ULL);  // 8.282126314313935
  }
  {
    // Contention edge costs c_e = w_u(1+S(u)) + w_v(1+S(v)) with a few
    // stored chunks: many equal-cost paths, so tie-breaking is exercised.
    const Graph g = make_grid(10, 10);
    metrics::CacheState state(100, 2, /*producer=*/0);
    for (const NodeId v : {11, 22, 45, 46, 54, 77, 89}) state.add(v, 0);
    state.add(45, 1);
    const auto w = metrics::contention_edge_costs(
        g, metrics::contention_weights(g, state));
    const auto tree =
        try_steiner_mst_approx(g, w, {0, 9, 33, 45, 67, 90, 99}).value();
    EXPECT_EQ(tree.edges,
              (std::vector<EdgeId>{0,   1,   2,   4,   7,   18,  20,  26,  37,
                                   39,  45,  56,  58,  63,  65,  68,  75,  77,
                                   87,  94,  96,  105, 107, 110, 113, 115, 128,
                                   130, 131, 134, 150, 153, 169, 179}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x406e400000000000ULL);  // 242.0
  }
}

// --------------------------------------- Voronoi fixtures, engine passed --

TEST(SteinerVoronoiTest, MatchesKnownGridCosts) {
  const Graph g = make_grid(3, 3);
  const auto w = unit_weights(g);
  EXPECT_TRUE(
      try_steiner_mst_approx(g, w, {4}, 0, {}, Engine::kVoronoi)
          .value()
          .edges.empty());
  EXPECT_DOUBLE_EQ(
      try_steiner_mst_approx(g, w, {0, 8}, 0, {}, Engine::kVoronoi)
          .value()
          .cost,
      4.0);
  EXPECT_DOUBLE_EQ(
      try_steiner_mst_approx(g, w, {0, 8, 0, 8}, 0, {}, Engine::kVoronoi)
          .value()
          .cost,
      4.0);
  const auto corners =
      try_steiner_mst_approx(g, w, {0, 2, 6, 8}, 0, {}, Engine::kVoronoi)
          .value();
  expect_valid_tree(g, corners, {0, 2, 6, 8});
  EXPECT_GE(corners.cost, 6.0 - 1e-9);
  EXPECT_LE(corners.cost, 2.0 * 6.0 + 1e-9);
}

// The same pins with the (inert) engine argument passed explicitly: the
// tie-breaking is part of the determinism contract, so these exact edge
// sets are golden.
TEST(SteinerVoronoiTest, PinnedDeterministicOutputs) {
  {
    const Graph g = make_grid(3, 3);
    const auto tree = try_steiner_mst_approx(g, unit_weights(g), {0, 2, 6, 8},
                                             0, {}, Engine::kVoronoi)
                          .value();
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{0, 1, 2, 4, 6, 9}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x4018000000000000ULL);  // 6.0
  }
  {
    util::Rng rng(7);
    const Graph g = make_grid(4, 4);
    std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
    for (auto& x : w) x = rng.uniform(0.5, 4.0);
    const auto tree =
        try_steiner_mst_approx(g, w, {0, 5, 10, 15}, 0, {}, Engine::kVoronoi)
            .value();
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{1, 7, 10, 16, 18, 20}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x40209072dc3aa384ULL);  // 8.2821263143139348
  }
}

// ---------------------------------------------------------------- batched --

// What the batch entry must equal: one single-set call per set, in set
// order, stopping at the first failure. `budget` makes a fresh budget per
// call.
template <typename MakeBudget>
util::Result<std::vector<SteinerTree>> per_set_reference(
    const Graph& g, const std::vector<double>& w,
    const std::vector<std::vector<NodeId>>& sets, MakeBudget budget) {
  const util::RunBudget shared = budget();
  std::vector<SteinerTree> trees;
  for (const auto& set : sets) {
    util::Result<SteinerTree> tree =
        try_steiner_mst_approx(g, w, set, 0, shared);
    if (!tree.ok()) return tree.status();
    trees.push_back(std::move(tree).value());
  }
  return trees;
}

// The status text of a failed batch, or every tree's edges and cost bits.
std::string describe(const util::Result<std::vector<SteinerTree>>& result) {
  if (!result.ok()) return result.status().to_string();
  std::string out;
  for (const SteinerTree& tree : result.value()) {
    for (EdgeId e : tree.edges) out += std::to_string(e) + ",";
    out += '|';
    out += std::to_string(std::bit_cast<std::uint64_t>(tree.cost));
    out += ';';
  }
  return out;
}

// Random terminal sets over g, drawn with replacement (so with duplicate
// terminals), each of size 1..8: some share a hub terminal (as every chunk
// shares the producer), some come from one slice of the ids (disjoint from
// the other slice), some are arbitrary.
std::vector<std::vector<NodeId>> random_sets(const Graph& g, util::Rng& rng) {
  const std::int64_t n = g.num_nodes();
  const auto hub = static_cast<NodeId>(rng.uniform_int(0, n - 1));
  std::vector<std::vector<NodeId>> sets(
      static_cast<std::size_t>(rng.uniform_int(1, 6)));
  for (auto& set : sets) {
    const std::int64_t size = rng.uniform_int(1, 8);
    const std::int64_t kind = rng.uniform_int(0, 3);
    if (kind == 0) set.push_back(hub);
    for (std::int64_t k = 0; k < size; ++k) {
      const std::int64_t lo = kind == 2 ? n / 2 : 0;
      const std::int64_t hi = kind == 1 ? n / 2 - 1 : n - 1;
      set.push_back(static_cast<NodeId>(rng.uniform_int(lo, hi)));
    }
  }
  return sets;
}

// try_steiner_mst_approx_sets equals per-set calls — trees, costs and
// the first failing set's status — on random graphs with tie-heavy integer
// and with real weights, sparse enough that some sets are unreachable, at
// 1, 2 and 8 threads.
TEST(SteinerBatchTest, MatchesPerSetCalls) {
  util::Rng rng(2718);
  int infeasible = 0;
  int ok = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = static_cast<int>(rng.uniform_int(6, 40));
    const Graph g = graph::make_erdos_renyi(n, rng.uniform(0.04, 0.3), rng);
    std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
    const bool integer = trial % 2 == 0;
    for (auto& x : w) {
      x = integer ? static_cast<double>(rng.uniform_int(1, 3))
                  : rng.uniform(0.5, 4.0);
    }
    const auto sets = random_sets(g, rng);
    const auto unlimited = [] { return util::RunBudget(); };
    const auto expected = per_set_reference(g, w, sets, unlimited);
    (expected.ok() ? ok : infeasible) += 1;
    if (!expected.ok()) {
      EXPECT_EQ(expected.code(), util::StatusCode::kInfeasible);
    }
    const std::string batch = testutil::expect_thread_invariant(
        [&] { return try_steiner_mst_approx_sets(g, w, sets); }, describe);
    EXPECT_EQ(batch, describe(expected));
  }
  EXPECT_GT(ok, 10);  // both outcomes are exercised
  EXPECT_GT(infeasible, 10);
}

// Hand-made edge cases: duplicates, single-terminal sets, disjoint and
// overlapping sets, an unreachable set behind a feasible one, malformed
// sets, and expired budgets, at 1, 2 and 8 threads.
TEST(SteinerBatchTest, EdgeCasesMatchPerSetCalls) {
  Graph g(8);  // a 2×3 grid (0..5) plus the separate edge 6–7
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 5);
  g.add_edge(6, 7);
  const auto w = unit_weights(g);
  const std::vector<std::vector<std::vector<NodeId>>> cases{
      {},
      {{3}},
      {{0, 5, 0, 5}, {5, 0}},
      {{0, 2}, {3, 5}, {6, 7}},
      {{0, 5}, {0, 2, 4}, {1, 3, 5}},
      {{0, 5}, {1, 6}, {7, 9}},
      {{0, 5}, {7, 9}, {1, 6}},
      {{0, 5}, {}, {1, 6}},
      {{2}, {0, 5}, {3, 4}},
  };
  const auto cancel = [] {
    const util::CancelToken token = util::CancelToken::make();
    token.request_cancel();
    return util::RunBudget::cancellable(token);
  };
  const auto no_work = [] { return util::RunBudget::work_units(0); };
  const auto unlimited = [] { return util::RunBudget(); };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const auto& sets = cases[c];
    for (const auto& budget : std::vector<std::function<util::RunBudget()>>{
             unlimited, cancel, no_work}) {
      EXPECT_EQ(testutil::expect_thread_invariant(
                    [&] { return try_steiner_mst_approx_sets(g, w, sets,
                                                             budget()); },
                    describe),
                describe(per_set_reference(g, w, sets, budget)));
    }
  }
  // {0, 2, 4}: the optimum is 3 (0–1–2 plus 1–4), but the Voronoi sweep
  // puts 1 and 3 in 0's region and joins 0–4 through the lower edge id
  // 3–4, so the 2-approximate tree costs 4.
  EXPECT_EQ(try_steiner_mst_approx_sets(g, w, cases[4]).value()[1].cost, 4.0);
  EXPECT_EQ(try_steiner_mst_approx_sets(g, w, cases[5]).code(),
            util::StatusCode::kInfeasible);
  EXPECT_EQ(try_steiner_mst_approx_sets(g, w, cases[6]).code(),
            util::StatusCode::kInvalidInput);
  EXPECT_EQ(try_steiner_mst_approx_sets(g, w, cases[2], cancel()).code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(try_steiner_mst_approx_sets(g, {1.0}, cases[2]).code(),
            util::StatusCode::kInvalidInput);
}

// The one-set batch charges the single-set call's work units: one per
// sweep, so one per set with two or more distinct terminals.
TEST(SteinerBatchTest, ChargesOneUnitPerSet) {
  const Graph g = make_grid(4, 4);
  const auto w = unit_weights(g);
  const util::RunBudget single = util::RunBudget::work_units(1000);
  ASSERT_TRUE(try_steiner_mst_approx(g, w, {0, 3, 12, 15, 3}, 0, single).ok());
  const util::RunBudget batch = util::RunBudget::work_units(1000);
  ASSERT_TRUE(
      try_steiner_mst_approx_sets(g, w, {{0, 3, 12, 15, 3}}, batch).ok());
  EXPECT_EQ(single.work_charged(), 1u);
  EXPECT_EQ(batch.work_charged(), 1u);
  // Two sets sharing terminals sweep twice; the one-terminal sets {5} and
  // {4, 4} sweep nothing.
  const util::RunBudget shared = util::RunBudget::work_units(1000);
  ASSERT_TRUE(try_steiner_mst_approx_sets(
                  g, w, {{0, 15, 3}, {0, 15, 12}, {5}, {4, 4}}, shared)
                  .ok());
  EXPECT_EQ(shared.work_charged(), 2u);
}

// ------------------------------------------------------------ leaf prune --

TEST(PruneTest, KeepsTerminalLeavesDropsDanglingBranch) {
  // Y-shaped tree centred at 1: branches to terminals 0 and 2, plus a
  // dangling non-terminal path 1-3-4. Only the dangling branch goes.
  Graph g(5);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e13 = g.add_edge(1, 3);
  const EdgeId e34 = g.add_edge(3, 4);
  std::vector<char> is_terminal(5, 0);
  is_terminal[0] = is_terminal[2] = 1;
  const auto kept = prune_non_terminal_leaves(
      g, {e01, e12, e13, e34}, is_terminal);
  EXPECT_EQ(kept, (std::vector<EdgeId>{e01, e12}));
}

// Regression: the old prune loop rebuilt the full O(V) degree array every
// pass and removed one leaf edge per pass on a path, going quadratic. A
// 200k-edge dangling path must prune in linear time (the quadratic loop
// would need ~2·10¹⁰ operations here).
TEST(PruneTest, LongDanglingPathPrunesInLinearTime) {
  const int n = 200000;
  Graph g(n);
  std::vector<EdgeId> path_edges;
  path_edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 0; v + 1 < n; ++v) {
    path_edges.push_back(g.add_edge(v, v + 1));
  }
  std::vector<char> is_terminal(static_cast<std::size_t>(n), 0);
  is_terminal[0] = 1;  // the whole path dangles off the lone terminal
  const auto kept = prune_non_terminal_leaves(g, path_edges, is_terminal);
  EXPECT_TRUE(kept.empty());
}

TEST(SteinerExactTest, MatchesKnownGridInstances) {
  const Graph g = make_grid(3, 3);
  const auto w = unit_weights(g);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0}), 0.0);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 8}), 4.0);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 2, 6, 8}), 6.0);
  // Center plus two adjacent corners: 0-1-2 plus 1-4.
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 2, 4}), 3.0);
}

TEST(SteinerExactTest, StarCenterIsFreeSteinerPoint) {
  // Star: terminals are 3 leaves; optimum connects through the hub = 3.
  const Graph g = graph::make_star(5);
  const auto w = unit_weights(g);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {1, 2, 3}), 3.0);
}

// Pinned bitwise fixture for the flat-storage (util::Matrix) port of the
// Dreyfus–Wagner dp: the exact cost on this instance must stay bit-for-bit
// what the nested-vector implementation produced.
TEST(SteinerExactTest, MatrixPortIsBitIdenticalOnPinnedFixture) {
  util::Rng rng(4242);
  graph::RandomGeometricConfig config;
  config.num_nodes = 18;
  config.radius = 0.4;
  const auto net = graph::make_random_geometric(config, rng);
  std::vector<double> w(static_cast<std::size_t>(net.graph.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 4.0);
  const double cost =
      steiner_exact_dreyfus_wagner(net.graph, w, {0, 3, 7, 11, 15});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cost),
            0x4030996916345097ULL);  // 16.599259746334237
}

// Property sweep: on random weighted graphs, approx is within 2× of exact
// and never below it; the approx tree is structurally valid.
class SteinerRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(SteinerRatioTest, ApproxWithinTwiceExact) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 1);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(8, 24));
  config.radius = rng.uniform(0.3, 0.5);
  const auto net = graph::make_random_geometric(config, rng);
  std::vector<double> w(static_cast<std::size_t>(net.graph.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 4.0);

  const int k = static_cast<int>(
      rng.uniform_int(2, std::min(6, net.graph.num_nodes())));
  std::vector<NodeId> all(static_cast<std::size_t>(net.graph.num_nodes()));
  for (NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  rng.shuffle(all);
  std::vector<NodeId> terminals(all.begin(), all.begin() + k);

  const double exact =
      steiner_exact_dreyfus_wagner(net.graph, w, terminals);
  const auto approx = try_steiner_mst_approx(net.graph, w, terminals).value();
  expect_valid_tree(net.graph, approx, terminals);
  EXPECT_GE(approx.cost, exact - 1e-6);
  EXPECT_LE(approx.cost, 2.0 * exact + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SteinerRatioTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace faircache::steiner
