// Tests for the sparse contention engine (metrics::SparseContention built
// by the CSR-layout ContentionUpdater), its wiring through
// core::ChunkInstanceEngine (ContentionMode::kSparse), the sparse-aware
// ConFL solver path, and the large-n Erdős–Rényi skip sampler the 100k
// benches rely on. The layout-generic updater tests live in
// incremental_test; the CSR cases here pin radii and fixtures its layout
// table does not reach.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "confl/confl.h"
#include "contention_checks.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "metrics/contention_updater.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/rng.h"

namespace faircache {
namespace {

using core::ApproxConfig;
using core::ApproxFairCaching;
using core::ContentionMode;
using core::FairCachingProblem;
using core::FairCachingResult;
using core::SolveReport;
using graph::Graph;
using graph::NodeId;
using metrics::CacheState;
using metrics::ContentionBuffers;
using metrics::ContentionLayout;
using metrics::ContentionUpdater;
using metrics::ContentionUpdaterOptions;
using metrics::SparseContention;
using testutil::buffer_hash;
using testutil::expect_matches_rebuild;
using testutil::placement_hash;

std::uint64_t edge_hash(const Graph& g) {
  util::Fnv1a h;
  for (const graph::Edge& e : g.edges()) h.value(e.u).value(e.v);
  return h.digest();
}

// A churned cache state exercising non-trivial contention weights,
// mirroring the incremental_test idiom.
CacheState churned_state(const Graph& g, util::Rng& rng, int steps,
                         int capacity = 3) {
  CacheState state(g.num_nodes(), capacity, /*producer=*/0);
  const int chunks = 5;
  for (int s = 0; s < steps; ++s) {
    const auto v = static_cast<NodeId>(
        rng.bounded(static_cast<std::uint64_t>(g.num_nodes())));
    const auto k = static_cast<metrics::ChunkId>(rng.bounded(chunks));
    if (rng.bernoulli(0.3) && state.holds(v, k)) {
      state.remove(v, k);
    } else if (state.can_cache(v, k)) {
      state.add(v, k);
    }
  }
  return state;
}

FairCachingProblem grid_problem(const Graph& g, int chunks = 5) {
  FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = chunks;
  problem.uniform_capacity = 5;
  return problem;
}

// ------------------------------------------------ store vs dense matrix --

TEST(SparseContentionTest, FullRadiusMatchesDenseMatrixExactly) {
  const Graph g = graph::make_grid(7, 6);
  util::Rng rng(11);
  const CacheState state = churned_state(g, rng, 120);
  ContentionUpdater updater(g, ContentionLayout::kCsr);
  updater.update(state);
  expect_matches_rebuild(g, updater, state);
  // Unbounded rows on a connected graph materialize every pair.
  const SparseContention& s = updater.store();
  EXPECT_EQ(s.row_offset.back(),
            static_cast<std::int64_t>(g.num_nodes()) * g.num_nodes());
}

TEST(SparseContentionTest, TruncatedRadiusMatchesDenseWithinBall) {
  // Deliberately disconnected ER graph: unreachable pairs must stay
  // absent (+inf) even inside the radius.
  util::Rng rng(83);
  const Graph g = graph::make_erdos_renyi(60, 0.06, rng);
  const CacheState state = churned_state(g, rng, 150);
  ContentionUpdaterOptions options;
  options.radius = 2;
  options.full_row = 0;
  ContentionUpdater updater(g, ContentionLayout::kCsr, options);
  updater.update(state);
  expect_matches_rebuild(g, updater, state);
}

TEST(SparseContentionTest, FullRowStaysUntruncated) {
  const Graph g = graph::make_grid(8, 8);  // diameter 14 >> radius
  ContentionUpdaterOptions options;
  options.radius = 1;
  options.full_row = 5;
  ContentionUpdater updater(g, ContentionLayout::kCsr, options);
  updater.update(CacheState(g.num_nodes(), 3, /*producer=*/5));
  const SparseContention& s = updater.store();
  // The exempt row covers the whole (connected) graph; other rows only
  // their closed 1-hop neighbourhood.
  EXPECT_EQ(s.row_end(5) - s.row_begin(5), g.num_nodes());
  EXPECT_EQ(s.row_end(0) - s.row_begin(0), 3);  // corner: self + 2
}

TEST(SparseContentionTest, RadiusAtLeastDiameterEqualsUnbounded) {
  const Graph g = graph::make_grid(6, 5);  // diameter 9
  util::Rng rng(17);
  const CacheState state = churned_state(g, rng, 90);

  ContentionUpdater unbounded(g, ContentionLayout::kCsr);
  unbounded.update(state);

  ContentionUpdaterOptions options;
  options.radius = 9;
  ContentionUpdater at_diameter(g, ContentionLayout::kCsr, options);
  at_diameter.update(state);

  EXPECT_EQ(unbounded.store().row_offset, at_diameter.store().row_offset);
  EXPECT_EQ(unbounded.store().packed, at_diameter.store().packed);
  EXPECT_EQ(unbounded.store().cost, at_diameter.store().cost);
  EXPECT_EQ(unbounded.store().max_cost, at_diameter.store().max_cost);
}

// ------------------------------------------------------- delta patching --

// The layout-table tests in incremental_test run radius 2 and unbounded;
// this one covers a radius-3 ball under heavier removal churn.
TEST(SparseContentionTest, ChurnMatchesFreshRebuildExactly) {
  const Graph g = graph::make_grid(7, 6);
  util::Rng rng(29);
  ContentionUpdaterOptions options;
  options.radius = 3;
  options.full_row = 0;
  ContentionUpdater incremental(g, ContentionLayout::kCsr, options);
  CacheState state(g.num_nodes(), 3, /*producer=*/0);
  incremental.update(state);
  for (int step = 0; step < 25; ++step) {
    const int burst = 1 + static_cast<int>(rng.bounded(4));
    for (int b = 0; b < burst; ++b) {
      const auto v = static_cast<NodeId>(
          rng.bounded(static_cast<std::uint64_t>(g.num_nodes())));
      const auto k = static_cast<metrics::ChunkId>(rng.bounded(5));
      if (rng.bernoulli(0.35) && state.holds(v, k)) {
        state.remove(v, k);
      } else if (state.can_cache(v, k)) {
        state.add(v, k);
      }
    }
    incremental.update(state);  // delta path after the first call
    ContentionUpdater fresh(g, ContentionLayout::kCsr, options);
    fresh.update(state);  // full sharded build
    ASSERT_EQ(incremental.store().packed, fresh.store().packed)
        << "step " << step;
    ASSERT_EQ(incremental.store().cost, fresh.store().cost)
        << "step " << step;
    ASSERT_EQ(incremental.store().max_cost, fresh.store().max_cost)
        << "step " << step;
    ASSERT_EQ(incremental.edge_costs(), fresh.edge_costs())
        << "step " << step;
  }
  EXPECT_GT(incremental.delta_apply_seconds(), 0.0);
}

TEST(SparseContentionTest, TakeRestoreRoundTripKeepsDeltaPath) {
  const Graph g = graph::make_grid(6, 6);
  ContentionUpdaterOptions options;
  options.radius = 2;
  options.full_row = 0;
  ContentionUpdater updater(g, ContentionLayout::kCsr, options);
  CacheState state(g.num_nodes(), 3, /*producer=*/0);
  updater.update(state);
  const double builds_before = updater.tree_build_seconds();

  ContentionBuffers lent = updater.take();
  EXPECT_TRUE(updater.store().empty());
  updater.restore(std::move(lent));

  state.add(7, 1);
  state.add(20, 3);
  updater.update(state);
  // The round trip kept the pinned trees: no new full build happened.
  EXPECT_EQ(updater.tree_build_seconds(), builds_before);
  expect_matches_rebuild(g, updater, state);
}

TEST(SparseContentionTest, LostBuffersFallBackToFullRebuild) {
  const Graph g = graph::make_grid(6, 6);
  ContentionUpdaterOptions options;
  options.radius = 2;
  options.full_row = 0;
  ContentionUpdater updater(g, ContentionLayout::kCsr, options);
  CacheState state(g.num_nodes(), 3, /*producer=*/0);
  updater.update(state);

  (void)updater.take();  // buffers never handed back
  state.add(3, 0);
  updater.update(state);  // must recover via a full rebuild
  expect_matches_rebuild(g, updater, state);
}

TEST(SparseContentionTest, CrossTopologyRestoreTriggersRebuild) {
  // Buffers taken from an updater built on one topology must never be
  // grafted onto an updater whose graph has since changed: the pinned
  // trees and edge costs are stale. The epoch stamp catches this and the
  // receiving updater falls back to a full rebuild.
  util::Rng rng(101);
  const Graph g1 = graph::make_grid(6, 6);
  const Graph g2 = graph::make_erdos_renyi(36, 0.12, rng);  // same n
  ContentionUpdaterOptions options;
  options.radius = 2;
  options.full_row = 0;

  ContentionUpdater u1(g1, ContentionLayout::kCsr, options);
  ContentionUpdater u2(g2, ContentionLayout::kCsr, options);
  CacheState state(36, 3, /*producer=*/0);
  u1.update(state);
  u2.update(state);

  (void)u2.take();        // u2's own buffers are lost...
  u2.restore(u1.take());  // ...and g1's offered
  EXPECT_EQ(u2.stale_restores(), 1);
  EXPECT_TRUE(u2.store().empty());  // stale buffers dropped, not adopted

  state.add(7, 1);
  u2.update(state);  // full rebuild on g2
  expect_matches_rebuild(g2, u2, state);
  ContentionUpdater fresh(g2, ContentionLayout::kCsr, options);
  fresh.update(state);
  EXPECT_EQ(buffer_hash(u2), buffer_hash(fresh));
}

TEST(SparseContentionTest, RestoreAfterRebuildIsDroppedAsStale) {
  // take → (updater rebuilds for itself) → restore of the old buffers:
  // the rebuild minted a new epoch, so the late hand-back is stale and
  // must not clobber the fresher state.
  const Graph g = graph::make_grid(6, 6);
  ContentionUpdaterOptions options;
  options.radius = 2;
  options.full_row = 0;
  ContentionUpdater updater(g, ContentionLayout::kCsr, options);
  CacheState state(g.num_nodes(), 3, /*producer=*/0);
  updater.update(state);

  ContentionBuffers old = updater.take();
  state.add(3, 0);
  updater.update(state);  // rebuilds, bumping the updater's epoch
  const std::uint64_t fresh_hash = buffer_hash(updater);

  updater.restore(std::move(old));
  EXPECT_EQ(updater.stale_restores(), 1);
  EXPECT_EQ(buffer_hash(updater), fresh_hash);  // kept its own state
  expect_matches_rebuild(g, updater, state);
}

TEST(SparseContentionTest, ThreadCountNeverChangesAnyBit) {
  util::Rng rng(47);
  const Graph g = graph::make_erdos_renyi(90, 0.07, rng);
  const CacheState state = churned_state(g, rng, 200);
  std::uint64_t reference = 0;
  for (const int threads : {1, 2, 8}) {
    ContentionUpdaterOptions options;
    options.radius = 3;
    options.full_row = 0;
    options.threads = threads;
    ContentionUpdater updater(g, ContentionLayout::kCsr, options);
    updater.update(state);
    const std::uint64_t h = buffer_hash(updater);
    if (threads == 1) {
      reference = h;
    } else {
      EXPECT_EQ(h, reference) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------------ sparse ConFL solve --

TEST(SparseConflTest, FullRadiusSolveBitIdenticalToDense) {
  const Graph g = graph::make_grid(7, 7);
  const FairCachingProblem problem = grid_problem(g);
  util::Rng rng(31);
  const CacheState state = churned_state(g, rng, 80, /*capacity=*/5);

  core::InstanceOptions dense_options;
  dense_options.contention_mode = ContentionMode::kRebuild;
  core::ChunkInstanceEngine dense_engine(problem, dense_options);

  core::InstanceOptions sparse_options;
  sparse_options.contention_mode = ContentionMode::kSparse;
  sparse_options.contention_radius = 0;  // unbounded
  core::ChunkInstanceEngine sparse_engine(problem, sparse_options);

  for (const confl::GrowthMode growth :
       {confl::GrowthMode::kFixedStep, confl::GrowthMode::kEventDriven}) {
    confl::ConflOptions confl_options;
    confl_options.growth = growth;

    auto dense_instance = dense_engine.build(state, /*chunk=*/0);
    auto sparse_instance = sparse_engine.build(state, /*chunk=*/0);
    ASSERT_TRUE(dense_instance.ok());
    ASSERT_TRUE(sparse_instance.ok());
    EXPECT_TRUE(sparse_instance.value().sparse());

    const confl::ConflSolution dense =
        confl::solve_confl(dense_instance.value(), confl_options);
    const confl::ConflSolution sparse =
        confl::solve_confl(sparse_instance.value(), confl_options);

    EXPECT_EQ(dense.open_facilities, sparse.open_facilities);
    EXPECT_EQ(dense.assignment, sparse.assignment);
    EXPECT_EQ(dense.facility_cost, sparse.facility_cost);
    EXPECT_EQ(dense.assignment_cost, sparse.assignment_cost);
    EXPECT_EQ(dense.tree_cost, sparse.tree_cost);
    EXPECT_EQ(dense.rounds, sparse.rounds);
    EXPECT_EQ(confl::evaluate_confl_objective(
                  dense_instance.value(), dense.open_facilities,
                  dense.tree_cost),
              confl::evaluate_confl_objective(
                  sparse_instance.value(), sparse.open_facilities,
                  sparse.tree_cost));
    sparse_engine.reclaim(std::move(sparse_instance).value());
  }
}

// ER graph stitched connected: stray components are linked onto the
// first component's representative.
Graph connected_erdos_renyi(int n, double p, util::Rng& rng) {
  Graph g = graph::make_erdos_renyi(n, p, rng);
  const std::vector<int> labels = g.component_labels();
  int components = 0;
  for (int label : labels) components = std::max(components, label + 1);
  std::vector<NodeId> rep(static_cast<std::size_t>(components),
                          graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    auto& r = rep[static_cast<std::size_t>(labels[v])];
    if (r == graph::kInvalidNode) r = v;
  }
  for (int c = 1; c < components; ++c) {
    g.add_edge(rep[0], rep[static_cast<std::size_t>(c)]);
  }
  return g;
}

// Golden-hash agreement — kSparse with radius ≥ diameter is bit-identical
// to kIncremental end to end, at 1, 2 and 8 threads, on a grid and a
// connected ER fixture.
TEST(SparseConflTest, EndToEndSparseMatchesIncrementalAtAnyThreadCount) {
  util::Rng topo_rng(7);
  const Graph grid = graph::make_grid(8, 8);  // diameter 14
  const Graph er = connected_erdos_renyi(60, 0.1, topo_rng);
  const struct {
    const Graph* g;
    int radius;  // ≥ diameter
  } fixtures[] = {{&grid, 14}, {&er, 60}};

  for (const auto& fixture : fixtures) {
    const FairCachingProblem problem = grid_problem(*fixture.g, 6);
    std::uint64_t golden = 0;
    bool have_golden = false;
    for (const int threads : {1, 2, 8}) {
      for (const ContentionMode mode :
           {ContentionMode::kIncremental, ContentionMode::kSparse}) {
        ApproxConfig config;
        config.instance.contention_mode = mode;
        config.instance.contention_radius =
            mode == ContentionMode::kSparse ? fixture.radius : 0;
        config.instance.threads = threads;
        config.confl.threads = threads;
        ApproxFairCaching algorithm(config);
        SolveReport report;
        auto result = algorithm.solve(problem, util::RunBudget::unlimited(),
                                      &report);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(report.contention_mode_used, mode);
        EXPECT_FALSE(report.degraded());
        const std::uint64_t h = placement_hash(result.value());
        if (!have_golden) {
          golden = h;
          have_golden = true;
        } else {
          EXPECT_EQ(h, golden)
              << "mode=" << static_cast<int>(mode) << " threads=" << threads;
        }
      }
    }
  }
}

// ---------------------------------------------------------- mode surfacing --

// Satellite 1: the silent kRebuild fallback of the delta-patching engines
// under kMinContention is surfaced through SolveReport.
TEST(ContentionModeTest, MinContentionFallbackIsSurfacedInReport) {
  const Graph g = graph::make_grid(6, 6);
  const FairCachingProblem problem = grid_problem(g, 3);
  for (const ContentionMode mode :
       {ContentionMode::kIncremental, ContentionMode::kSparse}) {
    ApproxConfig config;
    config.instance.contention_mode = mode;
    config.instance.path_policy = metrics::PathPolicy::kMinContention;
    ApproxFairCaching algorithm(config);
    SolveReport report;
    auto result =
        algorithm.solve(problem, util::RunBudget::unlimited(), &report);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(report.contention_mode_used, ContentionMode::kRebuild);
  }
}

TEST(ContentionModeTest, EngineReportsResolvedMode) {
  const Graph g = graph::make_grid(6, 6);
  const FairCachingProblem problem = grid_problem(g);

  core::InstanceOptions options;
  options.contention_mode = ContentionMode::kSparse;
  options.contention_radius = 2;
  core::ChunkInstanceEngine sparse_engine(problem, options);
  EXPECT_EQ(sparse_engine.mode_used(), ContentionMode::kSparse);
  EXPECT_TRUE(sparse_engine.incremental());

  options.path_policy = metrics::PathPolicy::kMinContention;
  core::ChunkInstanceEngine fallback_engine(problem, options);
  EXPECT_EQ(fallback_engine.mode_used(), ContentionMode::kRebuild);
  EXPECT_FALSE(fallback_engine.incremental());
}

// ----------------------------------------------------- degraded fallback --

TEST(SparseFallbackTest, ExpiredBudgetFallbackMatchesDenseFallback) {
  const Graph g = graph::make_grid(7, 7);
  const FairCachingProblem problem = grid_problem(g, 4);
  std::uint64_t hashes[2];
  int index = 0;
  for (const ContentionMode mode :
       {ContentionMode::kIncremental, ContentionMode::kSparse}) {
    ApproxConfig config;
    config.instance.contention_mode = mode;
    config.instance.contention_radius = 0;  // unbounded candidate sets
    ApproxFairCaching algorithm(config);
    SolveReport report;
    auto result = algorithm.solve(problem, util::RunBudget::wall_clock(0.0),
                                  &report);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(static_cast<int>(report.degraded_chunks.size()),
              problem.num_chunks);
    hashes[index++] = placement_hash(result.value());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(SparseFallbackTest, TruncatedFallbackStillCoversEveryChunk) {
  util::Rng rng(19);
  const Graph g = graph::make_watts_strogatz(80, 4, 0.05, rng);
  const FairCachingProblem problem = grid_problem(g, 4);
  ApproxConfig config;
  config.instance.contention_mode = ContentionMode::kSparse;
  config.instance.contention_radius = 2;
  ApproxFairCaching algorithm(config);
  SolveReport report;
  auto result = algorithm.solve(problem, util::RunBudget::wall_clock(0.0),
                                &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<int>(report.degraded_chunks.size()),
            problem.num_chunks);
  // Every chunk still lands somewhere feasible.
  for (const core::ChunkPlacement& p : result.value().placements) {
    EXPECT_FALSE(p.cache_nodes.empty());
  }
}

// --------------------------------------------------- Erdős–Rényi sampler --

// Satellite 2: the historical small-n draw sequence is pinned — seeded
// fixtures all over the suite depend on it. Golden hash of the edge list.
TEST(ErdosRenyiTest, SmallGraphDrawSequenceIsPinned) {
  util::Rng rng(123);
  const Graph g = graph::make_erdos_renyi(40, 0.15, rng);
  EXPECT_EQ(edge_hash(g), 0x82971d8e50461eacULL);
}

TEST(ErdosRenyiTest, SkipSamplingIsDeterministicPerSeed) {
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  const Graph a = graph::make_erdos_renyi(2000, 0.004, rng_a);
  const Graph b = graph::make_erdos_renyi(2000, 0.004, rng_b);
  EXPECT_EQ(edge_hash(a), edge_hash(b));
  // Mean edge count p·n(n−1)/2 ≈ 7996, σ ≈ 89 — ±10% is a > 8σ corridor.
  EXPECT_GT(a.num_edges(), 7200);
  EXPECT_LT(a.num_edges(), 8800);
  // Simple pairs only: no duplicates, no self loops.
  for (const graph::Edge& e : a.edges()) ASSERT_NE(e.u, e.v);
}

TEST(ErdosRenyiTest, SkipSamplingHandlesDegenerateProbabilities) {
  util::Rng rng(5);
  EXPECT_EQ(graph::make_erdos_renyi(600, 0.0, rng).num_edges(), 0);
  const Graph complete = graph::make_erdos_renyi(600, 1.0, rng);
  EXPECT_EQ(complete.num_edges(), 600 * 599 / 2);
}

}  // namespace
}  // namespace faircache
