#pragma once

// Checks shared by the contention-updater tests (incremental_test,
// sparse_test, integrity_test): the pair-by-pair comparison of an updater
// against a fresh ContentionMatrix, and FNV-1a fingerprints of updater
// buffers and solve placements.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/contention_updater.h"
#include "util/hash.h"

namespace faircache::testutil {

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

// The updater's live cost buffers (dense matrix, or CSR offsets, keys and
// costs) plus its max cost.
inline std::uint64_t buffer_hash(const metrics::ContentionUpdater& u) {
  util::Fnv1a h;
  if (u.layout() == metrics::ContentionLayout::kDense) {
    h.bytes(u.matrix().data(), u.matrix().size() * sizeof(double));
  } else {
    const metrics::SparseContention& s = u.store();
    h.bytes(s.row_offset.data(), s.row_offset.size() * sizeof(s.row_offset[0]));
    h.bytes(s.packed.data(), s.packed.size() * sizeof(s.packed[0]));
    h.bytes(s.cost.data(), s.cost.size() * sizeof(s.cost[0]));
  }
  return h.value(u.max_cost()).digest();
}

// Expects every pair the updater stores (all reachable pairs; for a
// truncated CSR row, those within the radius) to match a fresh
// ContentionMatrix bit for bit, every other pair to read +∞, and the edge
// costs (and, for full rows, the max cost) to match too.
inline void expect_matches_rebuild(const graph::Graph& g,
                                   const metrics::ContentionUpdater& u,
                                   const metrics::CacheState& state) {
  const metrics::ContentionMatrix fresh(g, state);
  const metrics::SparseContention& s = u.store();
  const bool truncated =
      u.layout() == metrics::ContentionLayout::kCsr && s.radius > 0;
  const int n = g.num_nodes();
  std::vector<int> hops(static_cast<std::size_t>(n));
  std::vector<graph::NodeId> queue;
  for (graph::NodeId i = 0; i < n; ++i) {
    graph::bfs_hops(g, i, hops.data(), queue);
    for (graph::NodeId j = 0; j < n; ++j) {
      const int hop = hops[static_cast<std::size_t>(j)];
      const bool stored =
          hop != graph::kUnreachable &&
          (!truncated || i == s.full_row || hop <= s.radius);
      ASSERT_EQ(u.cost(i, j), stored ? fresh.cost(i, j)
                                     : std::numeric_limits<double>::infinity())
          << "entry (" << i << ", " << j << ")";
    }
  }
  ASSERT_EQ(u.edge_costs(), fresh.edge_costs());
  if (!truncated) {
    EXPECT_EQ(u.max_cost(), fresh.max_cost());
  }
}

}  // namespace faircache::testutil
