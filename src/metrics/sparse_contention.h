#pragma once

// Sparse (candidate-list) contention costs — the O(n²)-wall breaker for
// 100k-node instances (docs/PERF.md, "Contention updater").
//
// Under PathPolicy::kHopShortest a client j only ever connects to a
// facility i within a bounded number of hops: beyond a contention radius r
// the pair cost is dominated by the root's full row, so the dense n×n
// matrix wastes memory on pairs the solver can never pick. The sparse
// store materializes, per source i, only the nodes within r hops of i —
// one truncated deterministic BFS per row, the exact hop-shortest
// arithmetic of metrics::ContentionMatrix restricted to the in-radius
// ball. Pairs absent from a row are implicitly +∞.
//
// Rows are CSR: a row's entries are its client ids in ascending order,
// with the double costs in a parallel array. Ascending client order is
// what keeps the solver's floating-point accumulations in the dense
// reference order. The hop distance is not stored: the radius is a
// locality cut on which pairs exist, and nothing reads it per entry.
//
// Two guarantees make the truncation safe:
//   * the `full_row` source (the ConFL root / producer) is always built
//     untruncated, so every client reachable from the root has a finite
//     root cost and the dual growth terminates;
//   * with radius ≥ the graph diameter (or radius ≤ 0, "unbounded") every
//     reachable pair is materialized and the store is entry-for-entry
//     bit-identical to the dense ContentionMatrix.
//
// metrics::ContentionUpdater (ContentionLayout::kCsr) builds and
// delta-patches this store.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_paths.h"

namespace faircache::metrics {

// CSR row store of in-radius path contention costs. Plain data: movable
// in and out of a ConflInstance without touching the pinned trees.
struct SparseContention {
  int num_nodes = 0;
  int radius = 0;  // ≤ 0 = unbounded (every row full)
  graph::NodeId full_row = graph::kInvalidNode;  // row built untruncated
  // Build stamp of the pinning updater (process-unique, monotone). A
  // restore() whose stamp does not match the updater's current pinned
  // trees — a buffer taken against an older topology or an earlier
  // rebuild — is dropped and the next update() rebuilds from scratch. The
  // dense layout lends an otherwise empty store that carries only this
  // stamp (metrics::ContentionBuffers).
  std::uint64_t epoch = 0;
  std::vector<std::int64_t> row_offset;  // size n + 1
  std::vector<graph::NodeId> col;        // client ids, ascending per row
  std::vector<double> cost;              // aligned with `col`

  bool empty() const { return row_offset.empty(); }
  std::int64_t row_begin(graph::NodeId i) const {
    return row_offset[static_cast<std::size_t>(i)];
  }
  std::int64_t row_end(graph::NodeId i) const {
    return row_offset[static_cast<std::size_t>(i) + 1];
  }

  // c_ij by binary search over row i; graph::kInfCost when the pair is not
  // materialized (out of radius / unreachable). O(log row) — for tests and
  // evaluators, not solver hot loops (those iterate rows).
  double cost_at(graph::NodeId i, graph::NodeId j) const {
    const graph::NodeId* base = col.data();
    const graph::NodeId* end = base + row_end(i);
    const graph::NodeId* it = std::lower_bound(base + row_begin(i), end, j);
    if (it == end || *it != j) return graph::kInfCost;
    return cost[static_cast<std::size_t>(it - base)];
  }
};

}  // namespace faircache::metrics
