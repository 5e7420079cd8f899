// Tests for the incremental per-chunk instance engine: the
// metrics::ContentionUpdater (delta range-adds over pinned BFS trees) must
// track a freshly built ContentionMatrix exactly on every row layout — the
// paper's contention weights are integer-valued, so the delta path is not
// just "within tolerance" but bit-identical — and
// core::ChunkInstanceEngine / ApproxFairCaching must produce the same
// placements in kIncremental and kRebuild modes at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "contention_checks.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "metrics/contention_updater.h"
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

ContentionUpdater make_updater(const Graph& g, const LayoutCase& c,
                               int threads = 0) {
  metrics::ContentionUpdaterOptions options;
  options.radius = c.radius;
  options.full_row = 0;  // the producer of every fixture below
  options.threads = threads;
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
    std::vector<std::uint64_t> hashes;
    for (const int threads : {1, 2, 8}) {
      metrics::CacheState state(g.num_nodes(), 3, 0);
      ContentionUpdater updater = make_updater(g, c, threads);
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
      hashes.push_back(h.digest());
    }
    EXPECT_EQ(hashes[0], hashes[1]);
    EXPECT_EQ(hashes[0], hashes[2]);
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

// ------------------------------------------------- ChunkInstanceEngine ---

core::FairCachingProblem grid_problem(const Graph& g, int chunks = 5) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = chunks;
  problem.uniform_capacity = 5;
  return problem;
}

TEST(ChunkInstanceEngineTest, IncrementalBuildsEqualStatelessBuilds) {
  const Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem = grid_problem(g);
  core::InstanceOptions options;  // kIncremental default
  core::ChunkInstanceEngine engine(problem, options);
  ASSERT_TRUE(engine.incremental());

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

TEST(ChunkInstanceEngineTest, MinContentionPolicyFallsBackToRebuild) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = grid_problem(g);
  core::InstanceOptions options;
  options.path_policy = metrics::PathPolicy::kMinContention;
  core::ChunkInstanceEngine engine(problem, options);
  EXPECT_FALSE(engine.incremental());  // weight-dependent paths can't pin

  const metrics::CacheState state = problem.make_initial_state();
  util::Result<confl::ConflInstance> built = engine.build(state, 0);
  ASSERT_TRUE(built.ok());
  const util::Result<confl::ConflInstance> ref =
      core::try_build_chunk_instance(problem, state, options, 0);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(built.value().assign_cost == ref.value().assign_cost);
  engine.reclaim(std::move(built).value());  // must be a harmless no-op
  EXPECT_EQ(engine.stats().delta_seconds, 0.0);
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
    EXPECT_EQ(third.value().sparse_cost.packed, ref.value().sparse_cost.packed);
    EXPECT_EQ(third.value().sparse_cost.cost, ref.value().sparse_cost.cost);
    EXPECT_EQ(third.value().edge_cost, ref.value().edge_cost);
  }
}

// ---------------------------------------------------- end-to-end solves ---

TEST(IncrementalSolveTest, PlacementsIdenticalToRebuildMode) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = grid_problem(g, 6);

  core::ApproxConfig incremental;
  incremental.instance.contention_mode = core::ContentionMode::kIncremental;
  core::ApproxConfig rebuild = incremental;
  rebuild.instance.contention_mode = core::ContentionMode::kRebuild;

  const core::FairCachingResult a =
      core::ApproxFairCaching(incremental).run(problem);
  const core::FairCachingResult b =
      core::ApproxFairCaching(rebuild).run(problem);
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
  std::vector<core::FairCachingResult> results;
  for (const int threads : {1, 2, 8}) {
    core::ApproxConfig config;
    config.instance.threads = threads;
    config.confl.threads = threads;
    results.push_back(core::ApproxFairCaching(config).run(problem));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[r].placements.size(), results[0].placements.size());
    for (std::size_t i = 0; i < results[0].placements.size(); ++i) {
      EXPECT_EQ(results[r].placements[i].cache_nodes,
                results[0].placements[i].cache_nodes);
      EXPECT_EQ(results[r].placements[i].solver_objective,
                results[0].placements[i].solver_objective);
    }
  }
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

  config.instance.contention_mode = core::ContentionMode::kRebuild;
  core::SolveReport rebuild_report;
  ASSERT_TRUE(core::ApproxFairCaching(config)
                  .solve(problem, {}, &rebuild_report)
                  .ok());
  EXPECT_GT(rebuild_report.build_tree_seconds, 0.0);
  EXPECT_EQ(rebuild_report.build_delta_seconds, 0.0);  // never delta-patches
}

}  // namespace
}  // namespace faircache
