// Tests for the parallel, allocation-lean solver core: util::Matrix,
// util::parallel_for, the CSR Dijkstra fast path, and — most
// importantly — the determinism contract: the active-set try_solve_confl is
// bit-identical to the dense reference engine and to itself at every
// thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "confl/confl.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "steiner/steiner.h"
#include "testutil.h"
#include "util/hash.h"
#include "util/matrix.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;
using testutil::expect_thread_invariant;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Connected random geometric network, the workload shape the benchmarks use.
graph::GeometricNetwork random_net(int n, util::Rng& rng) {
  graph::RandomGeometricConfig config;
  config.num_nodes = n;
  config.radius = 0.3;
  return graph::make_random_geometric(config, rng);
}

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, ShapeAndAccessors) {
  util::Matrix<double> m(3, 4, 0.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FALSE(m.empty());
  EXPECT_DOUBLE_EQ(m(2, 3), 0.5);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m[1][2], 7.0);   // row-pointer syntax
  EXPECT_EQ(m[1], m.data() + 4);    // rows are contiguous and adjacent
  EXPECT_EQ(m[2], m.data() + 8);
}

TEST(MatrixTest, AssignReshapesAndFills) {
  util::Matrix<int> m;
  EXPECT_TRUE(m.empty());
  m.assign(2, 3, 9);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 9);
  }
  m.assign(1, 1, -1);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m(0, 0), -1);
}

TEST(MatrixTest, AssignNoInitIsWritable) {
  util::Matrix<double> m;
  m.assign_no_init(5, 5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      m(i, j) = static_cast<double>(i * 5 + j);
    }
  }
  EXPECT_DOUBLE_EQ(m(4, 4), 24.0);
}

TEST(MatrixTest, Equality) {
  util::Matrix<int> a(2, 2, 1);
  util::Matrix<int> b(2, 2, 1);
  EXPECT_TRUE(a == b);
  b(0, 1) = 2;
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------- parallel_for --

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for(
      kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, WorkerIdsAreDense) {
  constexpr std::size_t kN = 512;
  const int threads = util::resolve_parallel_threads(4, kN);
  std::vector<std::atomic<int>> per_worker(static_cast<std::size_t>(threads));
  util::parallel_for(
      kN,
      [&](std::size_t, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, threads);
        per_worker[static_cast<std::size_t>(worker)].fetch_add(1);
      },
      threads);
  int total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ParallelForTest, NestedCallsDegradeToSerial) {
  std::atomic<int> count{0};
  util::parallel_for(
      8,
      [&](std::size_t) {
        // The nested loop must complete inline without deadlocking.
        util::parallel_for(16, [&](std::size_t) { count.fetch_add(1); }, 4);
      },
      2);
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(
          64,
          [](std::size_t i) {
            if (i == 33) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ResolveClampsToRange) {
  EXPECT_EQ(util::resolve_parallel_threads(8, 3), 3);
  EXPECT_EQ(util::resolve_parallel_threads(2, 100), 2);
  EXPECT_GE(util::resolve_parallel_threads(0, 100), 1);
}

// ------------------------------------------------- graph fast paths ------

TEST(BfsHopsTest, MatchesBfsOracle) {
  util::Rng rng(7);
  const auto net = random_net(60, rng);
  const Graph& g = net.graph;
  std::vector<int> hops(static_cast<std::size_t>(g.num_nodes()));
  std::vector<NodeId> queue;
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    graph::bfs_hops(g, v, hops.data(), queue);
    EXPECT_EQ(hops, graph::bfs(g, v).hops);
  }
}

TEST(DijkstraEdgeWeightsTest, CsrAndSlotWeightsDoNotChangeResult) {
  util::Rng rng(5);
  const auto net = random_net(50, rng);
  const Graph& g = net.graph;
  std::vector<double> weight(static_cast<std::size_t>(g.num_edges()));
  for (double& w : weight) w = rng.uniform(0.1, 2.0);

  const graph::CsrAdjacency adj = graph::build_csr(g);
  const std::vector<double> slot = graph::slot_weights(adj, weight);
  const auto plain = graph::dijkstra_edge_weights(g, 4, weight);
  const auto fast =
      graph::dijkstra_edge_weights(g, 4, weight, &adj, &slot);
  EXPECT_EQ(plain.cost, fast.cost);  // bitwise, via vector ==
  EXPECT_EQ(plain.parent, fast.parent);
  EXPECT_EQ(plain.parent_edge, fast.parent_edge);
}

TEST(BuildCsrTest, MatchesAdjacencyLists) {
  const Graph g = graph::make_grid(5, 6);
  const graph::CsrAdjacency adj = graph::build_csr(g);
  ASSERT_EQ(adj.offset.size(), static_cast<std::size_t>(g.num_nodes()) + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto incs = g.incident_edges(v);
    const auto begin = static_cast<std::size_t>(adj.offset[v]);
    ASSERT_EQ(adj.offset[v + 1] - adj.offset[v],
              static_cast<int>(nbrs.size()));
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      EXPECT_EQ(adj.neighbor[begin + k], nbrs[k]);
      EXPECT_EQ(adj.incident[begin + k], incs[k]);
    }
  }
}

// ----------------------------------------------- contention determinism --

TEST(ContentionMatrixTest, ThreadCountDoesNotChangeResult) {
  util::Rng rng(11);
  const auto net = random_net(70, rng);
  const Graph& g = net.graph;
  metrics::CacheState state(g.num_nodes(), 3, 0);
  state.add(5, 0);
  state.add(9, 0);
  for (auto policy :
       {metrics::PathPolicy::kHopShortest, metrics::PathPolicy::kMinContention}) {
    expect_thread_invariant(
        [&] {
          const metrics::ContentionMatrix c(g, state, policy);
          const util::Matrix<double>& m = c.matrix();
          return util::Fnv1a()
              .bytes(m.data(), m.size() * sizeof(double))
              .bytes(c.edge_costs().data(),
                     c.edge_costs().size() * sizeof(double))
              .digest();
        });
  }
}

TEST(ContentionMatrixTest, TakeMatrixStealsBuffer) {
  const Graph g = graph::make_grid(4, 4);
  const metrics::CacheState state(g.num_nodes(), 2, 0);
  metrics::ContentionMatrix contention(g, state);
  const util::Matrix<double> copy = contention.matrix();
  util::Matrix<double> taken = contention.take_matrix();
  EXPECT_TRUE(copy == taken);
  EXPECT_TRUE(contention.matrix().empty());
}

// ------------------------------------------- solver engine equivalence --

// Random ConFL instance over a connected geometric network: varying facility
// costs (some infinite), client weights (some zero), and edge scales.
confl::ConflInstance random_instance(const Graph& g, util::Rng& rng,
                                     bool weighted) {
  metrics::CacheState state(g.num_nodes(), 4, 0);
  metrics::ContentionMatrix contention(g, state);
  confl::ConflInstance instance;
  instance.network = &g;
  instance.root = static_cast<NodeId>(
      rng.uniform_int(0, g.num_nodes() - 1));
  instance.facility_cost.resize(static_cast<std::size_t>(g.num_nodes()));
  for (auto& f : instance.facility_cost) {
    f = rng.bernoulli(0.2) ? kInf : rng.uniform(0.5, 30.0);
  }
  instance.facility_cost[static_cast<std::size_t>(instance.root)] = kInf;
  instance.assign_cost = contention.take_matrix();
  instance.edge_cost = contention.take_edge_costs();
  instance.edge_scale = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 3.0);
  if (weighted) {
    instance.client_weight.resize(static_cast<std::size_t>(g.num_nodes()));
    for (auto& w : instance.client_weight) {
      w = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.25, 4.0);
    }
  }
  return instance;
}

void expect_identical_solutions(const confl::ConflSolution& a,
                                const confl::ConflSolution& b) {
  EXPECT_EQ(a.open_facilities, b.open_facilities);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.tree.edges, b.tree.edges);
  EXPECT_EQ(a.rounds, b.rounds);
  // Bitwise cost equality — both engines must execute the same FP ops.
  EXPECT_EQ(a.facility_cost, b.facility_cost);
  EXPECT_EQ(a.assignment_cost, b.assignment_cost);
  EXPECT_EQ(a.tree_cost, b.tree_cost);
}

// Every field expect_identical_solutions compares, costs bitwise.
std::uint64_t solution_hash(const confl::ConflSolution& s) {
  util::Fnv1a h;
  h.bytes(s.open_facilities.data(), s.open_facilities.size() * sizeof(NodeId));
  h.bytes(s.assignment.data(), s.assignment.size() * sizeof(NodeId));
  h.bytes(s.tree.edges.data(), s.tree.edges.size() * sizeof(graph::EdgeId));
  return h.value(s.rounds)
      .value(s.facility_cost)
      .value(s.assignment_cost)
      .value(s.tree_cost)
      .digest();
}

// The 10×10 grid's chunk-0 instance the thread tests below solve.
struct GridInstance {
  Graph g = graph::make_grid(10, 10);
  confl::ConflInstance instance =
      core::try_build_chunk_instance(testutil::make_problem(g, 0, 1, 5),
                                     metrics::CacheState(g.num_nodes(), 5, 0),
                                     core::InstanceOptions{})
          .value();
};

TEST(SolveConflEquivalenceTest, ActiveSetMatchesReferenceOnRandomInstances) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(8, 40));
    const auto net = random_net(n, rng);
    const Graph& g = net.graph;
    const confl::ConflInstance instance =
        random_instance(g, rng, /*weighted=*/trial % 2 == 1);

    confl::ConflOptions options;
    options.span_threshold = static_cast<int>(rng.uniform_int(1, 4));
    // A dyadic step makes α after k rounds exactly k·step; the others make
    // the scheduler correct its ceil(c / step) round guess against the
    // exact α sequence.
    constexpr double kSteps[] = {1.0, 0.25, 0.1, 0.3, 1.0 / 3.0, 0.7};
    options.alpha_step = kSteps[rng.uniform_int(0, 5)];
    SCOPED_TRACE("trial " + std::to_string(trial) + " alpha_step " +
                 std::to_string(options.alpha_step));
    const confl::ConflSolution fast =
        confl::try_solve_confl(instance, options).value();
    const confl::ConflSolution ref =
        confl::solve_confl_reference(instance, options);
    expect_identical_solutions(fast, ref);
  }
}

// The solve, Phase 2's Voronoi tree included, is identical at every thread
// count and to the dense reference engine.
TEST(SolveConflEquivalenceTest, VoronoiEngineThreadInvariantAndMatchesRef) {
  const GridInstance grid;
  const confl::ConflOptions options;
  const std::uint64_t h = expect_thread_invariant(
      [&] { return confl::try_solve_confl(grid.instance, options).value(); },
      solution_hash);
  EXPECT_EQ(h, solution_hash(
                   confl::solve_confl_reference(grid.instance, options)));
}

// Placements (testutil::placement_hash), every chunk's growth rounds and
// the final cache state.
std::uint64_t approx_hash(const core::FairCachingResult& result) {
  util::Fnv1a h;
  h.value(testutil::placement_hash(result));
  for (const core::ChunkPlacement& p : result.placements) {
    h.value(p.solver_rounds);
  }
  for (NodeId v = 0; v < result.state.num_nodes(); ++v) {
    for (const metrics::ChunkId c : result.state.chunks_on(v)) h.value(c);
    h.value(-1);
  }
  return h.digest();
}

// End-to-end: the full approximation pipeline is bit-deterministic across
// global thread-count settings (the strongest form of the contract).
TEST(ApproxDeterminismTest, GlobalThreadOverrideDoesNotChangePlacement) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = testutil::make_problem(g, 0, 3, 4);
  expect_thread_invariant(
      [&] { return core::ApproxFairCaching().run(problem); }, approx_hash);
}

// The budgeted entry point with an unlimited budget must be bit-identical to
// the legacy run() at every thread count: the cooperative budget checks are
// side-effect-free, so the anytime layer costs nothing when no limit is set.
TEST(ApproxDeterminismTest, UnlimitedBudgetSolveMatchesRunAtAnyThreadCount) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = testutil::make_problem(g, 0, 3, 4);
  const core::FairCachingResult reference =
      core::ApproxFairCaching().run(problem);

  const std::uint64_t h = expect_thread_invariant(
      [&] {
        core::SolveReport report;
        auto result = core::ApproxFairCaching().solve(
            problem, util::RunBudget(), &report);
        EXPECT_TRUE(report.stop_reason.ok());
        EXPECT_FALSE(report.degraded());
        EXPECT_TRUE(report.degraded_chunks.empty());
        return std::move(result).value();  // throws (fails) on an error
      },
      approx_hash);
  EXPECT_EQ(h, approx_hash(reference));
}

// One seeded Steiner fixture: a connected geometric network with random
// edge weights and every fifth node a terminal.
struct SteinerFixture {
  util::Rng rng{99};
  graph::GeometricNetwork net = random_net(80, rng);
  std::vector<double> weight;
  std::vector<NodeId> terminals;
  SteinerFixture() {
    weight.resize(static_cast<std::size_t>(net.graph.num_edges()));
    for (double& w : weight) w = rng.uniform(0.2, 3.0);
    for (NodeId v = 0; v < net.graph.num_nodes(); v += 5) {
      terminals.push_back(v);
    }
  }
  steiner::SteinerTree solve() const {
    return steiner::try_steiner_mst_approx(net.graph, weight, terminals)
        .value();
  }
};

// Tree edges and cost bits.
std::uint64_t tree_hash(const steiner::SteinerTree& tree) {
  return util::Fnv1a()
      .bytes(tree.edges.data(), tree.edges.size() * sizeof(graph::EdgeId))
      .value(tree.cost)
      .digest();
}

TEST(SteinerTest, VoronoiEngineThreadCountDoesNotChangeTree) {
  // The sweep itself is serial, but the tree must honour the library's
  // end-to-end thread-invariance contract.
  const SteinerFixture f;
  expect_thread_invariant([&] { return f.solve(); }, tree_hash);
}

}  // namespace
}  // namespace faircache
