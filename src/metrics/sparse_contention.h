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
// Rows are CSR with bit-packed entries: a row's entries are sorted by
// ascending client id and packed as (col << 8) | min(hop, 255) in one
// uint32 (requires n < 2^24), with the double costs in a parallel array.
// Ascending packed order is ascending client order, which is what keeps
// the solver's floating-point accumulations in the dense reference order.
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
  static constexpr int kHopBits = 8;
  static constexpr std::uint32_t kHopMask = (1u << kHopBits) - 1;
  static constexpr int kMaxNodes = 1 << (32 - kHopBits);  // col fits 24 bits

  static constexpr graph::NodeId col_of(std::uint32_t packed) {
    return static_cast<graph::NodeId>(packed >> kHopBits);
  }
  // Hop distance source → col, saturated at 255 (exact within any radius
  // ≤ 255; untruncated rows of deeper graphs clamp — the hop byte only
  // feeds heuristics, never the cost arithmetic).
  static constexpr int hop_of(std::uint32_t packed) {
    return static_cast<int>(packed & kHopMask);
  }

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
  std::vector<std::uint32_t> packed;     // (col << 8) | hop, ascending col
  std::vector<double> cost;              // aligned with `packed`
  double max_cost = 0.0;

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
    const std::uint32_t* base = packed.data();
    const std::uint32_t* end = base + row_end(i);
    const std::uint32_t* it = std::lower_bound(
        base + row_begin(i), end, static_cast<std::uint32_t>(j) << kHopBits);
    if (it == end || col_of(*it) != j) return graph::kInfCost;
    return cost[static_cast<std::size_t>(it - base)];
  }
};

}  // namespace faircache::metrics
