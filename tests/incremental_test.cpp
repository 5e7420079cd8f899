// Tests for the incremental per-chunk instance engine: the
// metrics::ContentionUpdater (delta range-adds over pinned BFS trees) must
// track a freshly built ContentionMatrix exactly on every row layout — the
// paper's contention weights are integer-valued, so the delta path is not
// just "within tolerance" but bit-identical — and
// core::ChunkInstanceEngine / ApproxFairCaching must produce the same
// placements as the stateless per-chunk builder at any thread count.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "metrics/contention.h"
#include "metrics/contention_updater.h"
#include "testutil.h"
#include "util/hash.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;
using metrics::ContentionBuffers;
using metrics::ContentionLayout;
using metrics::ContentionUpdater;
using testutil::expect_matches_rebuild;

// Every updater test runs over this table: the dense layout, a truncated
// CSR layout and a full-row CSR layout.
struct LayoutCase {
  const char* name;
  ContentionLayout layout;
  int radius;
};
constexpr LayoutCase kLayouts[] = {
    {"dense", ContentionLayout::kDense, 0},
    {"csr-r2", ContentionLayout::kCsr, 2},
    {"csr-unbounded", ContentionLayout::kCsr, 0},
};

ContentionUpdater make_updater(const Graph& g, const LayoutCase& c) {
  metrics::ContentionUpdaterOptions options;
  options.radius = c.radius;
  options.full_row = 0;  // the producer of every fixture below
  return ContentionUpdater(g, c.layout, options);
}

// Random add/remove churn on `state`, comparing the updater against a full
// rebuild — the ContentionMatrix and a fresh updater of the same layout —
// after every step.
void churn_and_check(const Graph& g, const LayoutCase& c, util::Rng& rng,
                     int steps, int capacity = 3) {
  SCOPED_TRACE(c.name);
  metrics::CacheState state(g.num_nodes(), capacity, /*producer=*/0);
  ContentionUpdater updater = make_updater(g, c);
  updater.update(state);
  expect_matches_rebuild(g, updater, state);

  for (int step = 0; step < steps; ++step) {
    // A burst of adds (what a chunk placement does), occasionally a
    // removal (cache replacement → negative deltas).
    const int burst = 1 + static_cast<int>(rng.bounded(4));
    for (int b = 0; b < burst; ++b) {
      const auto v = static_cast<NodeId>(rng.bounded(
          static_cast<std::uint64_t>(g.num_nodes())));
      const auto chunk = static_cast<metrics::ChunkId>(rng.bounded(8));
      if (state.can_cache(v, chunk)) {
        state.add(v, chunk);
      } else if (state.holds(v, chunk)) {
        state.remove(v, chunk);
      }
    }
    updater.update(state);  // delta path after the first call
    expect_matches_rebuild(g, updater, state);
    ContentionUpdater fresh = make_updater(g, c);
    fresh.update(state);
    ASSERT_EQ(testutil::buffer_hash(updater), testutil::buffer_hash(fresh))
        << "step " << step;
  }
  EXPECT_GT(updater.delta_apply_seconds(), 0.0);
}

TEST(ContentionUpdaterTest, GridChurnMatchesRebuildExactly) {
  for (const LayoutCase& c : kLayouts) {
    util::Rng rng(11);
    churn_and_check(graph::make_grid(7, 6), c, rng, 12);
  }
}

TEST(ContentionUpdaterTest, ErdosRenyiChurnMatchesRebuildExactly) {
  for (const LayoutCase& c : kLayouts) {
    util::Rng rng(29);
    for (const double p : {0.08, 0.2, 0.5}) {
      churn_and_check(graph::make_erdos_renyi(24, p, rng), c, rng, 8);
    }
  }
}

TEST(ContentionUpdaterTest, DisconnectedGraphsKeepInfiniteEntries) {
  // Sparse ER graphs are usually disconnected (isolated nodes included):
  // unreachable pairs must stay kInfCost through every delta round.
  for (const LayoutCase& c : kLayouts) {
    util::Rng rng(83);
    for (int round = 0; round < 4; ++round) {
      const Graph g = graph::make_erdos_renyi(20, 0.06, rng);
      churn_and_check(g, c, rng, 6);
    }
  }
}

TEST(ContentionUpdaterTest, RemovalOnlySequenceMatchesRebuild) {
  const Graph g = graph::make_grid(5, 5);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    metrics::CacheState state(g.num_nodes(), 4, 0);
    for (NodeId v = 1; v < g.num_nodes(); v += 2) {
      state.add(v, 0);
      state.add(v, 1);
    }
    ContentionUpdater updater = make_updater(g, c);
    updater.update(state);
    for (NodeId v = 1; v < g.num_nodes(); v += 2) {
      state.remove(v, 0);
      updater.update(state);
      expect_matches_rebuild(g, updater, state);
    }
  }
}

TEST(ContentionUpdaterTest, NoChangeUpdateIsANoOp) {
  const Graph g = graph::make_grid(4, 4);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    metrics::CacheState state(g.num_nodes(), 3, 0);
    ContentionUpdater updater = make_updater(g, c);
    updater.update(state);
    const double tree = updater.tree_build_seconds();
    const double delta = updater.delta_apply_seconds();
    updater.update(state);  // same weights: no sweep at all
    EXPECT_EQ(updater.tree_build_seconds(), tree);
    EXPECT_EQ(updater.delta_apply_seconds(), delta);
    expect_matches_rebuild(g, updater, state);
  }
}

TEST(ContentionUpdaterTest, ThreadCountNeverChangesAnyBit) {
  util::Rng rng(7);
  const Graph g = graph::make_erdos_renyi(30, 0.15, rng);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    testutil::expect_thread_invariant([&] {
      metrics::CacheState state(g.num_nodes(), 3, 0);
      ContentionUpdater updater = make_updater(g, c);
      updater.update(state);
      util::Fnv1a h;
      h.value(testutil::buffer_hash(updater));
      util::Rng churn(7);  // same churn sequence for every thread count
      for (int step = 0; step < 10; ++step) {
        const auto v = static_cast<NodeId>(
            churn.bounded(static_cast<std::uint64_t>(g.num_nodes())));
        const auto chunk = static_cast<metrics::ChunkId>(step % 4);
        if (state.can_cache(v, chunk)) state.add(v, chunk);
        updater.update(state);
        h.value(testutil::buffer_hash(updater));
      }
      return h.digest();
    });
  }
}

TEST(ContentionUpdaterTest, TakeRestoreRoundTripKeepsDeltaPath) {
  const Graph g = graph::make_grid(5, 4);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    metrics::CacheState state(g.num_nodes(), 3, 0);
    ContentionUpdater updater = make_updater(g, c);
    updater.update(state);

    ContentionBuffers lent = updater.take();
    EXPECT_FALSE(updater.ready());
    updater.restore(std::move(lent));
    EXPECT_TRUE(updater.ready());

    state.add(5, 0);
    state.add(17, 3);
    const double tree_before = updater.tree_build_seconds();
    updater.update(state);
    // Restored buffers delta-patch: no second full build happened.
    EXPECT_EQ(updater.tree_build_seconds(), tree_before);
    EXPECT_EQ(updater.stale_restores(), 0);
    expect_matches_rebuild(g, updater, state);
  }
}

TEST(ContentionUpdaterTest, LostBuffersFallBackToFullRebuild) {
  const Graph g = graph::make_grid(5, 4);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    metrics::CacheState state(g.num_nodes(), 3, 0);
    ContentionUpdater updater = make_updater(g, c);
    updater.update(state);

    (void)updater.take();  // never restored
    state.add(7, 0);
    const double tree_before = updater.tree_build_seconds();
    updater.update(state);
    EXPECT_GT(updater.tree_build_seconds(), tree_before);  // rebuilt in full
    expect_matches_rebuild(g, updater, state);
  }
}

TEST(ContentionUpdaterTest, StaleRestoreAfterRebuildIsDropped) {
  // Buffers taken before a later full build belong to the old pinning:
  // handing them back must not replace the fresh buffers, or the next
  // delta sweep patches costs of the wrong state.
  const Graph g = graph::make_grid(6, 6);
  for (const LayoutCase& c : kLayouts) {
    SCOPED_TRACE(c.name);
    ContentionUpdater updater = make_updater(g, c);
    metrics::CacheState state(g.num_nodes(), 3, /*producer=*/0);
    state.add(8, 0);
    updater.update(state);  // s1
    ContentionBuffers old = updater.take();

    state.add(14, 1);
    state.add(27, 2);
    updater.update(state);  // s2: a full rebuild, the buffers are out
    updater.restore(std::move(old));
    EXPECT_EQ(updater.stale_restores(), 1);
    EXPECT_TRUE(updater.ready());

    state.add(3, 0);
    state.remove(8, 0);
    updater.update(state);  // s3: delta sweep over the s2 buffers
    expect_matches_rebuild(g, updater, state);
  }
}

// Pinned-tree golden: the maintained digest blocks of a fresh build on
// each layout — dense on a grid and on a disconnected graph, CSR at radius
// 1, 2 and 0 with a full row — pinned at their recorded values. The aux
// block is left out: it carries the process-wide epoch. However the
// pinning scratch is laid out, no pinned cost, interval or client id may
// move, the maintained digest must equal a recompute, and every row must
// pass its stateless re-check, at any thread count.
TEST(ContentionUpdaterTest, PinnedTreesMatchGolden) {
  util::Rng rng(401);
  const Graph grid = graph::make_grid(12, 12);
  const Graph split = graph::make_erdos_renyi(60, 0.03, rng);
  const Graph er = graph::make_erdos_renyi(400, 0.02, rng);
  ASSERT_FALSE(split.is_connected());
  ASSERT_TRUE(er.is_connected());
  using Blocks = std::array<std::uint64_t, 4>;  // cost, tree, weight, edge
  struct Case {
    const char* name;
    const Graph* g;
    LayoutCase layout;
    Blocks golden;
  };
  const Case cases[] = {
      {"dense-grid", &grid, {"dense", ContentionLayout::kDense, 0},
       {0x6efa41effee269cdULL, 0x85dc8cd09a31fb85ULL, 0x5d84994d6d74c01dULL,
        0xef2f0684ad8ec035ULL}},
      {"dense-split", &split, {"dense", ContentionLayout::kDense, 0},
       {0xe773fc5170618f9dULL, 0x352d44017db35f82ULL, 0xb6cae6738d628cd9ULL,
        0xba60178c100bb33eULL}},
      {"csr-r1", &er, {"csr-r1", ContentionLayout::kCsr, 1},
       {0x09be523e635c9cb4ULL, 0xb9c48f68b430e40aULL, 0x2ab1f13ac3018d1dULL,
        0x3e81b6a3d95927a5ULL}},
      {"csr-r2", &er, {"csr-r2", ContentionLayout::kCsr, 2},
       {0x23009cfd6e986e75ULL, 0x30d95f2431267fb3ULL, 0x2ab1f13ac3018d1dULL,
        0x3e81b6a3d95927a5ULL}},
      {"csr-r0", &er, {"csr-r0", ContentionLayout::kCsr, 0},
       {0x11aeba45ca1609cdULL, 0x3731de69940d2252ULL, 0x2ab1f13ac3018d1dULL,
        0x3e81b6a3d95927a5ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const int n = c.g->num_nodes();
    metrics::CacheState state(n, 3, /*producer=*/0);
    util::Rng fill(17);
    for (int k = 0; k < n; ++k) {
      const auto v = static_cast<NodeId>(
          fill.bounded(static_cast<std::uint64_t>(n)));
      const auto chunk = static_cast<metrics::ChunkId>(fill.bounded(4));
      if (state.can_cache(v, chunk)) state.add(v, chunk);
    }
    const Blocks blocks = testutil::expect_thread_invariant([&] {
      ContentionUpdater updater = make_updater(*c.g, c.layout);
      updater.update(state);
      const util::StateDigest d = updater.maintained_digest();
      EXPECT_EQ(updater.recompute_digest(), d);
      for (NodeId i = 0; i < n; ++i) {
        EXPECT_TRUE(updater.verify_row(i)) << "row " << i;
      }
      return Blocks{d.cost, d.tree, d.weight, d.edge};
    });
    EXPECT_EQ(blocks, c.golden);
  }
}

// A CSR row's client ids are guarded state too: two ids swapped inside a
// row while the buffers are on loan leave every cost in place, yet the
// tree digest and the row's stateless re-check must both catch it.
TEST(ContentionUpdaterTest, SwappedCsrClientIdsAreCaught) {
  const Graph g = graph::make_grid(5, 4);
  ContentionUpdater updater = make_updater(g, kLayouts[1]);  // csr-r2
  metrics::CacheState state(g.num_nodes(), 3, /*producer=*/0);
  state.add(6, 0);
  updater.update(state);
  const util::StateDigest clean = updater.maintained_digest();
  ASSERT_EQ(updater.recompute_digest(), clean);

  const NodeId row = 7;
  ContentionBuffers lent = updater.take();
  const auto rb = static_cast<std::size_t>(lent.csr.row_begin(row));
  ASSERT_GE(lent.csr.row_end(row) - lent.csr.row_begin(row), 2);
  std::swap(lent.csr.col[rb], lent.csr.col[rb + 1]);
  updater.restore(std::move(lent));
  ASSERT_TRUE(updater.ready());

  const util::StateDigest have = updater.recompute_digest();
  EXPECT_EQ(updater.maintained_digest(), clean);
  EXPECT_NE(have.tree, clean.tree);
  EXPECT_EQ(have.cost, clean.cost);
  EXPECT_EQ(have.weight, clean.weight);
  EXPECT_EQ(have.edge, clean.edge);
  EXPECT_EQ(have.aux, clean.aux);
  EXPECT_STREQ(util::first_digest_mismatch(have, clean), "tree");
  EXPECT_FALSE(updater.verify_row(row));
  EXPECT_TRUE(updater.verify_row(row + 1));
}

// ------------------------------------------------- ChunkInstanceEngine ---

core::FairCachingProblem grid_problem(const Graph& g, int chunks = 5) {
  return testutil::make_problem(g, /*producer=*/0, chunks, /*capacity=*/5);
}

TEST(ChunkInstanceEngineTest, IncrementalBuildsEqualStatelessBuilds) {
  const Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem = grid_problem(g);
  core::InstanceOptions options;  // kIncremental default
  core::ChunkInstanceEngine engine(problem, options);

  metrics::CacheState state = problem.make_initial_state();
  util::Rng rng(3);
  for (metrics::ChunkId chunk = 0; chunk < 4; ++chunk) {
    util::Result<confl::ConflInstance> inc = engine.build(state, chunk);
    ASSERT_TRUE(inc.ok());
    const util::Result<confl::ConflInstance> ref =
        core::try_build_chunk_instance(problem, state, options, chunk);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(inc.value().assign_cost == ref.value().assign_cost);
    EXPECT_EQ(inc.value().edge_cost, ref.value().edge_cost);
    EXPECT_EQ(inc.value().facility_cost, ref.value().facility_cost);
    engine.reclaim(std::move(inc).value());
    // Mimic a placement: cache the chunk on a few random nodes.
    for (int b = 0; b < 3; ++b) {
      const auto v = static_cast<NodeId>(
          rng.bounded(static_cast<std::uint64_t>(g.num_nodes())));
      if (state.can_cache(v, chunk)) state.add(v, chunk);
    }
  }
  EXPECT_GT(engine.stats().tree_seconds, 0.0);
  EXPECT_GT(engine.stats().delta_seconds, 0.0);
}

// Min-contention rows never reach the engine: the stateless builder makes
// them from a min-contention ContentionMatrix, on a churned state whose
// weights make the two path policies disagree.
TEST(ChunkInstanceEngineTest, MinContentionPolicyFallsBackToRebuild) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = grid_problem(g);
  util::Rng rng(5);
  const metrics::CacheState state =
      testutil::churned_state(g, rng, 40, /*capacity=*/5);
  const util::Result<confl::ConflInstance> built =
      core::try_build_chunk_instance(problem, state, {}, 0,
                                     metrics::PathPolicy::kMinContention);
  ASSERT_TRUE(built.ok());
  const metrics::ContentionMatrix want(g, state,
                                       metrics::PathPolicy::kMinContention);
  EXPECT_TRUE(built.value().assign_cost == want.matrix());
  EXPECT_EQ(built.value().edge_cost, want.edge_costs());
  EXPECT_FALSE(built.value().assign_cost ==
               metrics::ContentionMatrix(g, state).matrix());
}

TEST(ChunkInstanceEngineTest, QueryCostMatchesContentionMatrix) {
  // sync() then query_cost() against a fresh ContentionMatrix on a churned
  // state, for both row layouts: the dense updater and the CSR updater at
  // radius 2 (+inf outside the ball; the producer's row is always full).
  // The first sync sees the empty state, so the second patches rather than
  // starting cold.
  const Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem = grid_problem(g);
  util::Rng rng(11);
  const metrics::CacheState state =
      testutil::churned_state(g, rng, 60, /*capacity=*/5);
  const struct {
    const char* name;
    core::ContentionMode mode;
    int radius;
  } cases[] = {
      {"dense", core::ContentionMode::kIncremental, 0},
      {"csr radius 2", core::ContentionMode::kSparse, 2},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    core::InstanceOptions options;
    options.contention_mode = c.mode;
    options.contention_radius = c.radius;
    core::ChunkInstanceEngine engine(problem, options);
    ASSERT_TRUE(engine.sync(problem.make_initial_state()).ok());
    ASSERT_TRUE(engine.sync(state).ok());
    ASSERT_TRUE(engine.query_ready());
    testutil::expect_costs_match(
        g, metrics::ContentionMatrix(g, state), c.radius,
        problem.producer,
        [&](NodeId i, NodeId j) { return engine.query_cost(i, j); });
  }
}

TEST(ChunkInstanceEngineTest, ValidationMatchesStatelessBuilder) {
  const Graph g = graph::make_grid(4, 4);
  core::FairCachingProblem problem = grid_problem(g);
  core::InstanceOptions options;
  core::ChunkInstanceEngine engine(problem, options);
  const metrics::CacheState wrong_size(4, 3, 0);
  EXPECT_FALSE(engine.build(wrong_size, 0).ok());

  const std::vector<std::vector<double>> demand(
      2, std::vector<double>(static_cast<std::size_t>(g.num_nodes()), 1.0));
  options.demand = &demand;
  core::ChunkInstanceEngine demand_engine(problem, options);
  const metrics::CacheState state = problem.make_initial_state();
  EXPECT_TRUE(demand_engine.build(state, 1).ok());
  EXPECT_FALSE(demand_engine.build(state, 2).ok());  // missing demand row
}

TEST(ChunkInstanceEngineTest, ReclaimOfSupersededInstanceIsDropped) {
  // build, build without reclaim (the engine rebuilds), then reclaim the
  // first instance: its buffers belong to the superseded pinning and must
  // not come back, or the next build delta-patches stale costs.
  const Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem = grid_problem(g);
  for (const core::ContentionMode mode :
       {core::ContentionMode::kIncremental, core::ContentionMode::kSparse}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::InstanceOptions options;
    options.contention_mode = mode;
    options.contention_radius = 2;
    core::ChunkInstanceEngine engine(problem, options);
    metrics::CacheState state = problem.make_initial_state();
    util::Result<confl::ConflInstance> first = engine.build(state, 0);
    ASSERT_TRUE(first.ok());
    state.add(8, 0);
    state.add(21, 0);
    util::Result<confl::ConflInstance> second = engine.build(state, 1);
    ASSERT_TRUE(second.ok());
    engine.reclaim(std::move(first).value());
    EXPECT_EQ(engine.guard_report().stale_restores, 1);

    state.add(14, 1);
    state.add(30, 1);
    util::Result<confl::ConflInstance> third = engine.build(state, 2);
    ASSERT_TRUE(third.ok());
    core::ChunkInstanceEngine fresh(problem, options);
    const util::Result<confl::ConflInstance> ref = fresh.build(state, 2);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(third.value().assign_cost == ref.value().assign_cost);
    EXPECT_EQ(third.value().sparse_cost.col, ref.value().sparse_cost.col);
    EXPECT_EQ(third.value().sparse_cost.cost, ref.value().sparse_cost.cost);
    EXPECT_EQ(third.value().edge_cost, ref.value().edge_cost);
  }
}

// ---------------------------------------------------- end-to-end solves ---

TEST(IncrementalSolveTest, PlacementsIdenticalToStatelessLoop) {
  // The delta-patched default run against the stateless per-chunk loop.
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = grid_problem(g, 6);

  const core::FairCachingResult a = core::ApproxFairCaching().run(problem);
  const core::FairCachingResult b = core::stateless_solve(problem).value();
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].cache_nodes, b.placements[i].cache_nodes);
    EXPECT_EQ(a.placements[i].solver_objective,
              b.placements[i].solver_objective);
    EXPECT_EQ(a.placements[i].solver_rounds, b.placements[i].solver_rounds);
  }
}

TEST(IncrementalSolveTest, ThreadInvariantEndToEnd) {
  const Graph g = graph::make_grid(7, 7);
  const core::FairCachingProblem problem = grid_problem(g, 5);
  testutil::expect_thread_invariant(
      [&] { return core::ApproxFairCaching().run(problem); },
      testutil::placement_hash);
}

TEST(IncrementalSolveTest, ReportSplitsBuildTime) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = grid_problem(g, 5);

  core::ApproxConfig config;
  core::SolveReport report;
  ASSERT_TRUE(
      core::ApproxFairCaching(config).solve(problem, {}, &report).ok());
  EXPECT_GT(report.build_tree_seconds, 0.0);   // chunk 0 pinned the trees
  EXPECT_GT(report.build_delta_seconds, 0.0);  // chunks 1+ delta-patched
  EXPECT_LE(report.build_tree_seconds + report.build_delta_seconds,
            report.build_seconds + 1e-9);
}

// The min-contention solve on the 8x8 grid, pinned to the placements
// ApproxFairCaching made on min-contention rows before its engine became
// hop-shortest only. The hop-shortest placements differ, so the pin fails
// if the policy stops reaching the stateless builder.
TEST(StatelessSolveTest, MinContentionPlacementsArePinned) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = grid_problem(g, 6);
  const std::uint64_t hash = testutil::expect_thread_invariant(
      [&] {
        return core::stateless_solve(problem, {},
                                     metrics::PathPolicy::kMinContention)
            .value();
      },
      testutil::placement_hash);
  EXPECT_EQ(hash, 0xd71022ff0f6ee155ULL);
  EXPECT_NE(testutil::placement_hash(core::stateless_solve(problem).value()),
            hash);
}

}  // namespace
}  // namespace faircache
