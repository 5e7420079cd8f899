// Tests for the primal–dual ConFL approximation.

#include "confl/confl.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "metrics/cache_state.h"
#include "metrics/contention.h"
#include "metrics/fairness.h"
#include "metrics/sparse_contention.h"
#include "util/rng.h"

namespace faircache::confl {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds a ConFL instance straight from a graph + empty cache state with
// the paper's cost model.
ConflInstance make_instance(const Graph& g, NodeId root,
                            std::vector<double> facility_cost,
                            double edge_scale = 1.0) {
  metrics::CacheState state(g.num_nodes(), 5, root);
  const metrics::ContentionMatrix contention(g, state);
  ConflInstance instance;
  instance.network = &g;
  instance.root = root;
  instance.facility_cost = std::move(facility_cost);
  instance.assign_cost = contention.matrix();
  instance.edge_cost = contention.edge_costs();
  instance.edge_scale = edge_scale;
  return instance;
}

void expect_valid_solution(const ConflInstance& instance,
                           const ConflSolution& s) {
  const int n = instance.network->num_nodes();
  ASSERT_EQ(static_cast<int>(s.assignment.size()), n);
  for (NodeId j = 0; j < n; ++j) {
    const NodeId i = s.assignment[static_cast<std::size_t>(j)];
    ASSERT_NE(i, graph::kInvalidNode);
    // Assigned facility must be open or the root.
    const bool is_open =
        i == instance.root ||
        std::find(s.open_facilities.begin(), s.open_facilities.end(), i) !=
            s.open_facilities.end();
    EXPECT_TRUE(is_open) << "client " << j << " assigned to closed " << i;
  }
  for (NodeId i : s.open_facilities) {
    EXPECT_NE(i, instance.root) << "the producer never caches";
    EXPECT_NE(instance.facility_cost[static_cast<std::size_t>(i)], kInf)
        << "infinite-cost facility opened";
  }
  // Tree must exist whenever facilities are open.
  if (!s.open_facilities.empty()) {
    EXPECT_FALSE(s.tree.edges.empty());
  } else {
    EXPECT_TRUE(s.tree.edges.empty());
  }
}

TEST(ConflTest, AllFromRootWhenNoFacilityAllowed) {
  const Graph g = graph::make_grid(3, 3);
  const NodeId root = 4;
  ConflInstance instance =
      make_instance(g, root, std::vector<double>(9, kInf));
  const ConflSolution s = try_solve_confl(instance).value();
  expect_valid_solution(instance, s);
  EXPECT_TRUE(s.open_facilities.empty());
  EXPECT_DOUBLE_EQ(s.facility_cost, 0.0);
  EXPECT_DOUBLE_EQ(s.tree_cost, 0.0);
  // Every client served straight from the root.
  for (NodeId j = 0; j < 9; ++j) {
    EXPECT_EQ(s.assignment[static_cast<std::size_t>(j)], root);
  }
}

TEST(ConflTest, HugeSpanThresholdForcesRootOnly) {
  const Graph g = graph::make_grid(4, 4);
  ConflInstance instance =
      make_instance(g, 0, std::vector<double>(16, 0.0));
  ConflOptions options;
  options.span_threshold = 100;  // unreachable
  const ConflSolution s = try_solve_confl(instance, options).value();
  expect_valid_solution(instance, s);
  EXPECT_TRUE(s.open_facilities.empty());
}

TEST(ConflTest, OpensRemoteClusterFacility) {
  // Long path with the root at one end: distant nodes should be served by
  // an opened facility rather than hauling everything from the root.
  const Graph g = graph::make_path(12);
  ConflInstance instance =
      make_instance(g, 0, std::vector<double>(12, 0.0));
  ConflOptions options;
  options.span_threshold = 2;
  const ConflSolution s = try_solve_confl(instance, options).value();
  expect_valid_solution(instance, s);
  ASSERT_FALSE(s.open_facilities.empty());
  // Some far node must be served by a non-root facility.
  EXPECT_NE(s.assignment[11], 0);
}

TEST(ConflTest, AssignmentNeverWorseThanRootDirect) {
  const Graph g = graph::make_grid(4, 4);
  ConflInstance instance =
      make_instance(g, 5, std::vector<double>(16, 0.5));
  const ConflSolution s = try_solve_confl(instance).value();
  expect_valid_solution(instance, s);
  for (NodeId j = 0; j < 16; ++j) {
    const NodeId i = s.assignment[static_cast<std::size_t>(j)];
    EXPECT_LE(instance.assign_cost[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(j)],
              instance.assign_cost[5][static_cast<std::size_t>(j)] + 1e-9);
  }
}

TEST(ConflTest, DeterministicAcrossRuns) {
  const Graph g = graph::make_grid(5, 5);
  ConflInstance instance =
      make_instance(g, 12, std::vector<double>(25, 0.25));
  const ConflSolution a = try_solve_confl(instance).value();
  const ConflSolution b = try_solve_confl(instance).value();
  EXPECT_EQ(a.open_facilities, b.open_facilities);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.total(), b.total());
}

// α after k fixed-step rounds, by the engines' own repeated addition. For
// a non-dyadic step this differs from k·step in the last bits.
double alpha_after(int k, double step) {
  double a = 0.0;
  for (int r = 0; r < k; ++r) a += step;
  return a;
}

// The sparse twin of a dense instance: the same costs in a CSR store, with
// the +inf pairs left out.
ConflInstance sparse_twin(const ConflInstance& dense) {
  ConflInstance sparse = dense;
  sparse.assign_cost = util::Matrix<double>();
  const int n = dense.network->num_nodes();
  metrics::SparseContention& s = sparse.sparse_cost;
  s.num_nodes = n;
  s.row_offset.push_back(0);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      const double c = dense.assign_cost(static_cast<std::size_t>(i),
                                         static_cast<std::size_t>(j));
      if (c == kInf) continue;
      s.col.push_back(j);
      s.cost.push_back(c);
    }
    s.row_offset.push_back(static_cast<std::int64_t>(s.col.size()));
  }
  return sparse;
}

// Costs on the fixed-step α sequence a_seq[k], and 1e-12 above it (the
// tightness tolerance), for k next to the scheduler's horizon edges 16, 32
// and 64. Each client belongs to one edge: its pairs sit at that edge's
// rounds (or at +inf), and its root cost a few rounds past it. The last
// client reaches only the root, at round 70, so growth crosses every edge
// with clients still active.
ConflInstance band_edge_instance(const Graph& g, double step,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = g.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  ConflInstance instance;
  instance.network = &g;
  instance.root = 0;
  instance.edge_cost.assign(static_cast<std::size_t>(g.num_edges()), 1.0);
  const double facility_costs[] = {0.0, 0.5, 3.0, kInf};
  instance.facility_cost.resize(un);
  for (double& f : instance.facility_cost) {
    f = facility_costs[rng.uniform_int(0, 3)];
  }
  instance.assign_cost = util::Matrix<double>(un, un, kInf);
  const int edges[] = {16, 32, 64};
  for (NodeId j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const int edge = edges[j % 3];
    if (j == n - 1) {
      instance.assign_cost(0, uj) = alpha_after(70, step);
      continue;
    }
    instance.assign_cost(0, uj) =
        j == 0 ? 0.0
               : alpha_after(edge + static_cast<int>(rng.uniform_int(2, 5)),
                             step);
    for (NodeId i = 1; i < n; ++i) {
      if (rng.bernoulli(0.2)) continue;  // +inf pair
      const int k = edge + static_cast<int>(rng.uniform_int(-1, 1));
      instance.assign_cost(static_cast<std::size_t>(i), uj) =
          alpha_after(k, step) + (rng.bernoulli(0.5) ? 1e-12 : 0.0);
    }
  }
  return instance;
}

// Solves `dense` and its sparse twin with try_solve_confl and expects both
// to match the dense reference bit for bit, rounds included. Returns the
// reference's round count.
int expect_twins_match_reference(const ConflInstance& dense,
                                 const ConflOptions& options) {
  const ConflInstance sparse = sparse_twin(dense);
  const ConflSolution ref = solve_confl_reference(dense, options);
  for (const ConflInstance* instance : {&dense, &sparse}) {
    SCOPED_TRACE(instance == &dense ? "dense" : "sparse");
    const ConflSolution s = try_solve_confl(*instance, options).value();
    EXPECT_EQ(s.open_facilities, ref.open_facilities);
    EXPECT_EQ(s.assignment, ref.assignment);
    EXPECT_EQ(s.tree.edges, ref.tree.edges);
    EXPECT_EQ(s.rounds, ref.rounds);
    EXPECT_EQ(s.facility_cost, ref.facility_cost);  // bitwise
    EXPECT_EQ(s.assignment_cost, ref.assignment_cost);
    EXPECT_EQ(s.tree_cost, ref.tree_cost);
  }
  return ref.rounds;
}

// With a non-dyadic step the fixed-step scheduler's round lookup must
// correct its ceil(c / step) guess against the exact α sequence; costs on
// the band edges tell a wrong round apart. The active-set engine, dense
// and sparse, must match the dense reference bit for bit.
TEST(ConflTest, NonDyadicStepBandEdgesMatchReference) {
  const Graph g = graph::make_grid(6, 6);
  for (const double step : {0.1, 0.3, 1.0 / 3.0, 0.7}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ConflInstance dense = band_edge_instance(g, step, seed);
      for (int span_threshold = 1; span_threshold <= 2; ++span_threshold) {
        SCOPED_TRACE(::testing::Message() << "step " << step << " seed "
                                          << seed << " M " << span_threshold);
        ConflOptions options;
        options.alpha_step = step;
        options.span_threshold = span_threshold;
        const int rounds = expect_twins_match_reference(dense, options);
        EXPECT_GT(rounds, 64);  // growth crossed every edge
      }
    }
  }
}

// Each facility row's finite costs lie in one band of the fixed-step
// scheduler's horizons: up to a_seq[16], (16, 32], (32, 64], or past 64
// (crossing the horizon at 128). A quarter of the costs, and every cost
// of the "top-only" rows, sit exactly on a band top a_seq[h] + 1e-12, the
// extension's `hi`. Clients belong to bands too: a row reaches half the
// clients of its own band and a few others, and a client's root cost lies
// past its band, so the facilities of every band have clients to serve.
// The band-0 facilities are free and open early, freezing clients of
// later rows between extensions. The last client reaches only the root,
// at round 150, so growth crosses every horizon.
ConflInstance band_row_instance(const Graph& g, double step,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = g.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  ConflInstance instance;
  instance.network = &g;
  instance.root = 0;
  instance.edge_cost.assign(static_cast<std::size_t>(g.num_edges()), 1.0);
  instance.assign_cost = util::Matrix<double>(un, un, kInf);
  instance.facility_cost.resize(un);
  const double facility_costs[] = {0.0, 0.5, 3.0, kInf};
  struct Band {
    int lo, hi, top;  // pair rounds (lo, hi]; top is the on-edge round
    int root_lo, root_hi;  // root rounds of the band's clients
  };
  const Band bands[] = {{0, 16, 16, 20, 36},
                        {16, 32, 32, 36, 52},
                        {32, 64, 64, 68, 84},
                        {64, 136, 128, 140, 150}};
  for (NodeId i = 1; i < n; ++i) {
    const Band& band = bands[i % 4];
    const bool top_only = (i / 4) % 2 == 1;
    instance.facility_cost[static_cast<std::size_t>(i)] =
        i % 4 == 0 ? 0.0 : facility_costs[rng.uniform_int(0, 3)];
    for (NodeId j = 1; j < n - 1; ++j) {
      if (!rng.bernoulli(j % 4 == i % 4 ? 0.5 : 0.1)) continue;  // +inf
      instance.assign_cost(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(j)) =
          top_only || rng.bernoulli(0.25)
              ? alpha_after(band.top, step) + 1e-12
              : alpha_after(
                    static_cast<int>(rng.uniform_int(band.lo + 1, band.hi)),
                    step);
    }
  }
  for (NodeId j = 1; j < n; ++j) {
    const Band& band = bands[j % 4];
    instance.assign_cost(0, static_cast<std::size_t>(j)) = alpha_after(
        j == n - 1 ? 150
                   : static_cast<int>(
                         rng.uniform_int(band.root_lo, band.root_hi)),
        step);
  }
  instance.assign_cost(0, 0) = 0.0;
  return instance;
}

// A band rescan skips a facility row only when the least cost of its
// unfrozen pairs above the last band lies strictly above the new band's
// top. Rows confined to one band, costs on the band tops and clients
// frozen between extensions must leave every solve bit-identical to the
// dense reference: dense and sparse, M = 1 and 3, with and without client
// weights.
TEST(ConflTest, BandRowSkipMatchesReference) {
  const Graph g = graph::make_grid(6, 6);
  for (const double step : {1.0, 0.7}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const bool weighted : {false, true}) {
        const ConflInstance dense = [&] {
          ConflInstance d = band_row_instance(g, step, seed);
          util::Rng rng(seed + 100);
          const double weights[] = {0.0, 0.5, 1.0, 2.0};
          for (NodeId j = 0; weighted && j < g.num_nodes(); ++j) {
            d.client_weight.push_back(weights[rng.uniform_int(0, 3)]);
          }
          return d;
        }();
        for (const int span_threshold : {1, 3}) {
          SCOPED_TRACE(::testing::Message()
                       << "step " << step << " seed " << seed << " weighted "
                       << weighted << " M " << span_threshold);
          ConflOptions options;
          options.alpha_step = step;
          options.span_threshold = span_threshold;
          const int rounds = expect_twins_match_reference(dense, options);
          EXPECT_GT(rounds, 128);  // growth crossed every horizon
        }
      }
    }
  }
}

TEST(ConflTest, ExpensiveFacilitiesOpenLess) {
  const Graph g = graph::make_grid(5, 5);
  ConflInstance cheap =
      make_instance(g, 12, std::vector<double>(25, 0.0));
  ConflInstance expensive =
      make_instance(g, 12, std::vector<double>(25, 50.0));
  const auto s_cheap = try_solve_confl(cheap).value();
  const auto s_expensive = try_solve_confl(expensive).value();
  EXPECT_GE(s_cheap.open_facilities.size(),
            s_expensive.open_facilities.size());
}

TEST(ConflTest, RoundsBoundedByMaxCostOverStep) {
  const Graph g = graph::make_grid(4, 4);
  ConflInstance instance =
      make_instance(g, 0, std::vector<double>(16, 0.0));
  ConflOptions options;
  options.alpha_step = 1.0;
  const ConflSolution s = try_solve_confl(instance, options).value();
  double worst_to_root = 0.0;
  for (NodeId j = 0; j < 16; ++j) {
    worst_to_root = std::max(worst_to_root, instance.assign_cost[0][j]);
  }
  EXPECT_LE(s.rounds, static_cast<int>(worst_to_root) + 2);
}

TEST(ConflTest, SmallerStepNeverHurtsMuch) {
  // Step-size sensitivity (paper §IV-B discussion): a finer step should
  // give an objective at least as good up to discretization noise.
  const Graph g = graph::make_grid(5, 5);
  ConflInstance instance =
      make_instance(g, 12, std::vector<double>(25, 1.0));
  ConflOptions coarse;
  coarse.alpha_step = 8.0;
  coarse.beta_step = 8.0;
  coarse.gamma_step = 8.0;
  ConflOptions fine;
  fine.alpha_step = 0.5;
  fine.beta_step = 0.5;
  fine.gamma_step = 0.5;
  const double c = try_solve_confl(instance, coarse).value().total();
  const double f = try_solve_confl(instance, fine).value().total();
  EXPECT_LE(f, c * 1.5 + 1e-9);
}

TEST(ConflTest, EvaluateObjectiveMatchesSolutionTotals) {
  const Graph g = graph::make_grid(4, 4);
  ConflInstance instance =
      make_instance(g, 3, std::vector<double>(16, 0.75));
  const ConflSolution s = try_solve_confl(instance).value();
  const double eval = evaluate_confl_objective(
      instance, s.open_facilities, s.tree_cost);
  EXPECT_NEAR(eval, s.total(), 1e-9);
}

TEST(ConflTest, EdgeScaleRaisesTreeCostOnly) {
  const Graph g = graph::make_path(8);
  ConflInstance a = make_instance(g, 0, std::vector<double>(8, 0.0), 1.0);
  ConflInstance b = make_instance(g, 0, std::vector<double>(8, 0.0), 3.0);
  const ConflSolution sa = try_solve_confl(a).value();
  const ConflSolution sb = try_solve_confl(b).value();
  if (!sa.open_facilities.empty() &&
      sb.open_facilities == sa.open_facilities) {
    EXPECT_NEAR(sb.tree_cost, 3.0 * sa.tree_cost, 1e-9);
  }
  // With pricier trees, never more facilities open than with cheap trees
  // is NOT guaranteed by the algorithm (phase 1 ignores tree costs), but
  // both solutions must be structurally valid.
  expect_valid_solution(a, sa);
  expect_valid_solution(b, sb);
}

// Property sweep: random geometric instances with random facility costs —
// structural validity plus the trivial upper bound (never worse than
// serving everyone from the root, because phase 2 reassigns optimally and
// facilities/tree only exist if phase 1 opened them).
class ConflRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflRandomTest, ValidAndBeatsNaiveBound) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL +
                1442695040888963407ULL);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(6, 30));
  config.radius = rng.uniform(0.25, 0.45);
  const auto net = graph::make_random_geometric(config, rng);
  const NodeId root = static_cast<NodeId>(
      rng.bounded(static_cast<std::uint64_t>(net.graph.num_nodes())));
  std::vector<double> fcost(static_cast<std::size_t>(net.graph.num_nodes()));
  for (auto& f : fcost) f = rng.bernoulli(0.2) ? kInf : rng.uniform(0.0, 4.0);

  ConflInstance instance = make_instance(net.graph, root, fcost);
  ConflOptions options;
  options.span_threshold = static_cast<int>(rng.uniform_int(1, 4));
  const ConflSolution s = try_solve_confl(instance, options).value();
  expect_valid_solution(instance, s);

  double root_only = 0.0;
  for (NodeId j = 0; j < net.graph.num_nodes(); ++j) {
    root_only +=
        instance.assign_cost[static_cast<std::size_t>(root)]
                            [static_cast<std::size_t>(j)];
  }
  // Assignment cost alone is ≤ root-only cost; facility + tree costs are
  // the price of the dual growth's choices. Sanity: the total should not
  // exceed a loose multiple of the naive bound.
  EXPECT_LE(s.assignment_cost, root_only + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ConflRandomTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace faircache::confl
