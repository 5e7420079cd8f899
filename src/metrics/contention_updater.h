#pragma once

// Incremental contention-cost maintenance across Algorithm 1's chunk loop.
//
// Under PathPolicy::kHopShortest the deterministic BFS tree per source
// depends only on the topology, never on the node weights: c_ij is the sum
// of w_k(1 + S(k)) over the fixed tree path from i to j. Between
// consecutive chunks only the handful of nodes that just received a copy
// change their S(k), so the whole O(n·m) ContentionMatrix rebuild reduces
// to, per row i, one range-add per changed node k over the preorder
// interval of k's subtree in the tree rooted at i — O(row + |D|)
// sequential work per row (difference events + one sweep), no graph
// traversal.
//
// The updater pins the trees once (preorder/subtree intervals per source)
// and thereafter keeps its owned costs and edge costs in sync with any
// CacheState handed to update(). Deltas may be negative (chunk
// eviction), and rows are processed independently in parallel, so results
// are bit-identical at any thread count.
//
// Two row layouts share that machinery and differ only in how a row slot
// maps to a client (ContentionLayout). Builds are sharded into blocks of
// consecutive sources, so parallel workers write disjoint, contiguous
// stretches of the row arrays.
//
// Floating-point caveat: an incrementally updated entry is
// old_value + Σ Δw_k, which associates differently from the rebuild's
// root-to-leaf accumulation. For the paper's cost model the weights
// w_k(1+S) are integer-valued doubles, so both orders are exact and the
// updater is bitwise identical to a fresh ContentionMatrix; for general
// real weights agreement is only up to rounding (docs/PERF.md).

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "metrics/sparse_contention.h"
#include "util/integrity.h"
#include "util/matrix.h"

namespace faircache::metrics {

enum class ContentionLayout {
  // Slot = client id: every row has n slots, an unreached slot holds +∞
  // (pinned preorder −1). The costs are a plain n×n matrix and cost(i, j)
  // is an O(1) index. Rows are always full (radius and full_row are
  // ignored).
  kDense,
  // Slot = position in the row's ascending client-id list of the
  // SparseContention store: only clients within `radius` hops are stored.
  // Two-pass build (ball sizes, then rows); cost(i, j) is a binary search.
  kCsr,
};

// Options fixed at updater construction (they shape the pinned trees).
struct ContentionUpdaterOptions {
  // kCsr: hop truncation radius per source row; ≤ 0 builds every row full.
  int radius = 0;
  // kCsr: source whose row is always built untruncated (the ConFL root),
  // so the dual growth can freeze every client onto the pre-opened root.
  // kInvalidNode (or an out-of-range id) disables the exemption.
  graph::NodeId full_row = graph::kInvalidNode;
  // Maintain integrity digests across builds and delta sweeps (~3 integer
  // ops per touched entry); disable only when no core::EngineGuard will
  // ever audit this updater.
  bool checksums = true;
};

// The buffers a ConflInstance borrows between update() calls (its
// assign_cost / sparse_cost / edge_cost). Exactly one of `dense` / `csr`
// holds costs, per layout; `csr.epoch` stamps the pinned trees they were
// taken from under both layouts.
struct ContentionBuffers {
  util::Matrix<double> dense;
  SparseContention csr;
  std::vector<double> edge_cost;
};

class ContentionUpdater {
 public:
  // The graph must outlive the updater; its topology must not change
  // (edges added after construction would invalidate the pinned trees).
  // Rows follow hop-shortest paths, the only paths that can be pinned:
  // min-contention paths depend on the weights themselves, so their rows
  // come from ContentionMatrix.
  ContentionUpdater(const graph::Graph& g, ContentionLayout layout,
                    ContentionUpdaterOptions options = {});
  ~ContentionUpdater();

  ContentionUpdater(const ContentionUpdater&) = delete;
  ContentionUpdater& operator=(const ContentionUpdater&) = delete;

  // Brings the owned costs and edge costs in sync with `state`.
  // The first call (or any call while the buffers are out on loan)
  // performs the full build and pins the per-source trees; later calls
  // apply the weight deltas. No-op when no node weight changed.
  void update(const CacheState& state);

  const graph::Graph& graph() const { return *graph_; }
  ContentionLayout layout() const { return layout_; }

  // c_ij against the last update(); graph::kInfCost for an unreachable or
  // (kCsr) out-of-radius pair. Requires ready().
  double cost(graph::NodeId i, graph::NodeId j) const {
    return dense() ? buf_.dense(static_cast<std::size_t>(i),
                                static_cast<std::size_t>(j))
                   : buf_.csr.cost_at(i, j);
  }
  const util::Matrix<double>& matrix() const { return buf_.dense; }  // kDense
  const SparseContention& store() const { return buf_.csr; }         // kCsr
  const std::vector<double>& edge_costs() const { return buf_.edge_cost; }

  // Zero-copy hand-off for instance building: lend the buffers, let the
  // solver run on them, then hand them back so the next update() can
  // delta-patch instead of rebuilding. An update() with the buffers still
  // out falls back to a full rebuild. restore() drops (and counts in
  // stale_restores()) buffers whose epoch is not the current pinning's —
  // taken before a later rebuild, or from another updater — and buffers
  // offered while nothing is out on loan.
  ContentionBuffers take();
  void restore(ContentionBuffers buffers);
  int stale_restores() const { return stale_restores_; }

  // Cumulative wall-clock split of the work done by update() calls:
  // full builds (BFS trees + preorder intervals + initial costs) vs delta
  // sweeps. Surfaced per run in core::SolveReport.
  double tree_build_seconds() const { return tree_build_seconds_; }
  double delta_apply_seconds() const { return delta_apply_seconds_; }

  // --- Integrity-guard surface (core::EngineGuard; docs/ROBUSTNESS.md,
  // "Integrity guard"). ---

  // True once update() has built and the buffers are home (not lent).
  bool ready() const { return built_ && !lent_; }
  bool checksums_enabled() const { return options_.checksums; }

  // The digests the incremental bookkeeping believes are current. Only
  // meaningful when checksums_enabled() and ready().
  const util::StateDigest& maintained_digest() const { return digest_; }

  // Recomputes every block digest from the actual buffers (parallel over
  // rows, bit-identical at any thread count, never reads out of bounds of
  // a truncated buffer). Divergence from maintained_digest() means some
  // state mutated outside update().
  util::StateDigest recompute_digest() const;

  // Stateless recompute of row i from the tracked weights (the exact
  // arithmetic of a fresh ContentionMatrix); true when the stored row
  // matches bitwise.
  // Catches correctness-path corruption the checksums cannot see (a
  // tampered weight keeps the bookkeeping self-consistent while every
  // patched row drifts from the truth).
  bool verify_row(graph::NodeId i) const;

  // Test-only fault hook (sim::StateFaultInjector): mutates one guarded
  // slot *without* updating the maintained checksums — exactly what a bit
  // flip or dropped delta does. False when the corruption class does not
  // apply or nothing is built yet.
  bool corrupt_for_testing(const util::StateCorruption& corruption);

 private:
  struct Workspace;  // per-worker scratch, defined in the .cpp

  bool dense() const { return layout_ == ContentionLayout::kDense; }
  // BFS depth limit for row i (effectively unbounded for full rows).
  int row_limit(graph::NodeId i) const;
  // Row i occupies slots [row_begin(i), row_begin(i + 1)) of the cost and
  // tree arrays (dense: i·n; CSR: the store's row offsets).
  std::int64_t row_begin(std::size_t i) const;
  double* costs();
  const double* costs() const;
  std::size_t cost_size() const;
  // Whether `b` fits the current pinning (slot and edge counts).
  bool shape_ok(const ContentionBuffers& b) const;

  void build_full(const std::vector<double>& weight);
  // Pins row `src` into the slot arrays and accumulates its digest
  // contributions in `ws`.
  void pin_row(graph::NodeId src, Workspace& ws);
  void apply_deltas(const std::vector<std::pair<graph::NodeId, double>>& d);

  // Digest slot of the first pre_ entry: the CSR layout digests its row
  // offsets and client ids ahead of the interval arrays.
  std::uint64_t tree_base() const;
  // Digest of the aux block: the store's epoch and shape scalars. They
  // change only on a build, so the sweeps leave it alone.
  std::uint64_t aux_digest() const;
  std::uint64_t weight_digest() const;

  const graph::Graph* graph_ = nullptr;
  ContentionLayout layout_;
  ContentionUpdaterOptions options_;
  graph::CsrAdjacency adj_;

  ContentionBuffers buf_;  // home buffers (moved out by take())
  bool lent_ = false;

  // Pinned per-source trees, aligned with the cost slots: pre_/end_ give
  // the preorder subtree interval [pre, end) of a slot's node in its row's
  // BFS tree (dense: pre −1 for an unreached slot); order_ maps a row's
  // preorder position back to its slot.
  std::vector<std::int32_t, util::DefaultInitAllocator<std::int32_t>> pre_;
  std::vector<std::int32_t, util::DefaultInitAllocator<std::int32_t>> end_;
  std::vector<std::int32_t, util::DefaultInitAllocator<std::int32_t>>
      order_;

  std::vector<double> weight_;  // w_k(1+S(k)) the costs currently reflect
  bool built_ = false;
  util::StateDigest digest_;  // maintained block checksums (checksums only)

  // Epoch of the currently pinned trees (assigned fresh per build_full
  // from a process-wide counter) and the stale-restore drop count.
  std::uint64_t epoch_ = 0;
  int stale_restores_ = 0;

  double tree_build_seconds_ = 0.0;
  double delta_apply_seconds_ = 0.0;
};

}  // namespace faircache::metrics
