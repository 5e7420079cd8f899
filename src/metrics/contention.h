#pragma once

// Contention-induced delay cost (paper §III-C).
//
//   * Node Contention Cost  w_k = degree(k)        (one chunk per neighbour)
//   * Path Contention Cost  c_ij = Σ_{k ∈ PATH(i,j)} w_k · (1 + S(k))
//
// PATH(i, j) is the deterministic hop-shortest path (both endpoints
// included); c_ii = 0 because a self access transmits nothing. The edge
// cost used for the dissemination Steiner tree is the path cost of the
// two-node path: c_e = w_u(1+S(u)) + w_v(1+S(v)).

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "util/matrix.h"

namespace faircache::metrics {

// w_k for every node.
std::vector<double> node_contention(const graph::Graph& g);

// Per-node contention weight including the storage factor: w_k · (1 + S(k)).
std::vector<double> contention_weights(const graph::Graph& g,
                                       const CacheState& state);

// Dissemination edge cost of every edge, weight[u] + weight[v], from the
// per-node weights of contention_weights: O(m), no path costs.
std::vector<double> contention_edge_costs(const graph::Graph& g,
                                          const std::vector<double>& weight);

// How PATH(i, j) is chosen when computing c_ij.
enum class PathPolicy {
  // Hop-shortest path with deterministic tie-breaking — the paper's model.
  kHopShortest,
  // Minimum-contention path (node-weighted Dijkstra) — ablation variant.
  kMinContention,
};

// One row c_i· of path contention costs at a time, in O(n) scratch: the
// traversal behind every ContentionMatrix row, for callers that read only
// some rows (the evaluator reads one per copy holder). Rows are
// bit-identical to the matrix's. Not thread-safe; use one builder per
// worker. `adj` (graph::build_csr(g)) and `weight` (contention_weights)
// must outlive the builder.
class ContentionRowBuilder {
 public:
  ContentionRowBuilder(const graph::Graph& g, const graph::CsrAdjacency& adj,
                       const std::vector<double>& weight, PathPolicy policy);

  // Writes c_ij into row[j] for every j (kInfCost when unreachable).
  void build(graph::NodeId i, double* row);

 private:
  // Per-node weight and BFS visit stamp, packed so the hop-shortest
  // relaxation is a single-stream read; the stamp replaces a per-row
  // kInfCost pre-fill.
  struct NodeEntry {
    double weight;
    int stamp;
  };
  const graph::Graph* g_;
  const graph::CsrAdjacency* adj_;
  const std::vector<double>* weight_;
  PathPolicy policy_;
  std::vector<NodeEntry> node_;
  std::vector<graph::NodeId> order_;  // BFS frontier = processing order
  int generation_ = 0;
};

// Dense matrix of path contention costs c_ij for the current cache state.
// The n per-source rows are independent single-source traversals and are
// built in parallel (util::parallel_threads() workers); every entry is
// bit-identical at any thread count.
class ContentionMatrix {
 public:
  ContentionMatrix(const graph::Graph& g, const CacheState& state,
                   PathPolicy policy = PathPolicy::kHopShortest);

  double cost(graph::NodeId i, graph::NodeId j) const {
    return cost_(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  }
  const util::Matrix<double>& matrix() const { return cost_; }

  // Dissemination edge cost c_e for every edge of the graph.
  const std::vector<double>& edge_costs() const { return edge_cost_; }

  // Destructive accessors for consumers that own the data afterwards
  // (instance building): steal the buffers instead of copying n² doubles.
  // The ContentionMatrix is empty afterwards.
  util::Matrix<double> take_matrix() { return std::move(cost_); }
  std::vector<double> take_edge_costs() { return std::move(edge_cost_); }

  PathPolicy policy() const { return policy_; }

 private:
  util::Matrix<double> cost_;
  std::vector<double> edge_cost_;
  PathPolicy policy_;
};

}  // namespace faircache::metrics
