#pragma once

// Test harness shared by the test files: problem and cache-state
// fixtures, the thread-invariance check, the pair-by-pair comparison of a
// contention updater against a fresh ContentionMatrix, and FNV-1a
// fingerprints of updater buffers and solve placements. The stateless
// reference chunk loop is core::stateless_solve.

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/contention_updater.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace faircache::testutil {

// A problem on `g` with one uniform per-node capacity.
inline core::FairCachingProblem make_problem(const graph::Graph& g,
                                             graph::NodeId producer,
                                             int chunks, int capacity) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = producer;
  problem.num_chunks = chunks;
  problem.uniform_capacity = capacity;
  return problem;
}

// A churned cache state (producer 0) exercising non-trivial contention
// weights: `steps` random adds over 5 chunks, some of them removals.
inline metrics::CacheState churned_state(const graph::Graph& g,
                                         util::Rng& rng, int steps,
                                         int capacity = 3) {
  metrics::CacheState state(g.num_nodes(), capacity, /*producer=*/0);
  const int chunks = 5;
  for (int s = 0; s < steps; ++s) {
    const auto v = static_cast<graph::NodeId>(
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

// Overrides the process-wide thread count (util::set_parallel_threads)
// for one scope. The destructor restores the default even when a failed
// ASSERT_* returns early, so no override leaks into later tests of the
// same process. Overrides do not nest: every test starts at the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { util::set_parallel_threads(threads); }
  ~ScopedThreads() { util::set_parallel_threads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

struct Identity {
  template <typename T>
  T operator()(T value) const {
    return value;
  }
};

// The thread-invariance check: runs `run()` at 1, 2 and 8 global threads
// and expects `hash` of each result to equal the 1-thread hash, which it
// returns (for pinning against a golden or another engine). `hash` may
// return any value EXPECT_EQ can compare and print; by default `run`
// returns that value itself.
template <typename Run, typename Hash = Identity>
auto expect_thread_invariant(Run&& run, Hash&& hash = Hash{}) {
  const auto at = [&](int threads) {
    const ScopedThreads scoped(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    return hash(run());
  };
  const auto reference = at(1);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(at(threads), reference) << "diverges at " << threads
                                      << " threads";
  }
  return reference;
}

// Chunk ids, cache nodes, assignments and objective bits of every chunk.
inline std::uint64_t placement_hash(const core::FairCachingResult& result) {
  util::Fnv1a h;
  for (const core::ChunkPlacement& p : result.placements) {
    h.value(p.chunk);
    h.bytes(p.cache_nodes.data(), p.cache_nodes.size() * sizeof(graph::NodeId));
    h.bytes(p.assignment.data(), p.assignment.size() * sizeof(graph::NodeId));
    h.value(p.solver_objective);
  }
  return h.digest();
}

// The updater's live cost buffers (dense matrix, or CSR offsets, client
// ids and costs).
inline std::uint64_t buffer_hash(const metrics::ContentionUpdater& u) {
  util::Fnv1a h;
  if (u.layout() == metrics::ContentionLayout::kDense) {
    h.bytes(u.matrix().data(), u.matrix().size() * sizeof(double));
  } else {
    const metrics::SparseContention& s = u.store();
    h.bytes(s.row_offset.data(), s.row_offset.size() * sizeof(s.row_offset[0]));
    h.bytes(s.col.data(), s.col.size() * sizeof(s.col[0]));
    h.bytes(s.cost.data(), s.cost.size() * sizeof(s.cost[0]));
  }
  return h.digest();
}

// Expects `cost(i, j)` to match `fresh` bit for bit on every stored pair
// (all reachable pairs; with `radius` > 0, only those within the radius on
// every row but `full_row`) and every other pair to read +∞.
template <typename Cost>
void expect_costs_match(const graph::Graph& g,
                        const metrics::ContentionMatrix& fresh, int radius,
                        graph::NodeId full_row, Cost&& cost) {
  const int n = g.num_nodes();
  std::vector<int> hops(static_cast<std::size_t>(n));
  std::vector<graph::NodeId> queue;
  for (graph::NodeId i = 0; i < n; ++i) {
    graph::bfs_hops(g, i, hops.data(), queue);
    for (graph::NodeId j = 0; j < n; ++j) {
      const int hop = hops[static_cast<std::size_t>(j)];
      const bool stored = hop != graph::kUnreachable &&
                          (radius <= 0 || i == full_row || hop <= radius);
      ASSERT_EQ(cost(i, j), stored ? fresh.cost(i, j)
                                   : std::numeric_limits<double>::infinity())
          << "entry (" << i << ", " << j << ")";
    }
  }
}

// expect_costs_match for every pair the updater stores (a CSR row is
// truncated at the store's radius), and the edge costs match too.
inline void expect_matches_rebuild(const graph::Graph& g,
                                   const metrics::ContentionUpdater& u,
                                   const metrics::CacheState& state) {
  const metrics::ContentionMatrix fresh(g, state);
  const metrics::SparseContention& s = u.store();
  const bool csr = u.layout() == metrics::ContentionLayout::kCsr;
  expect_costs_match(g, fresh, csr ? s.radius : 0, s.full_row,
                     [&](graph::NodeId i, graph::NodeId j) {
                       return u.cost(i, j);
                     });
  ASSERT_EQ(u.edge_costs(), fresh.edge_costs());
}

}  // namespace faircache::testutil
