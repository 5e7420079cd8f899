#pragma once

// Shortest-path machinery. The paper routes all traffic along *hop-shortest*
// paths ("a node will find the nearest copy of a chunk and go through the
// shortest hop path", §V-A); contention weights are then summed along those
// paths. We also provide node-weighted Dijkstra and Floyd–Warshall, used by
// the Steiner/metric-closure layers and as test oracles.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace faircache::graph {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

// BFS tree rooted at `source`. Neighbours are explored in ascending id, so
// the parent of every node is the smallest-id predecessor on any
// hop-shortest path — deterministic tie-breaking across the whole library.
struct BfsTree {
  NodeId source = kInvalidNode;
  std::vector<int> hops;       // hop distance, kUnreachable if none
  std::vector<NodeId> parent;  // kInvalidNode for source / unreachable
};

BfsTree bfs(const Graph& g, NodeId source);

// Hop distances only, written into hops[0..n): no parent vector, no
// per-call allocation. `queue` is caller-provided scratch (cleared here);
// passing the same vector across calls amortizes its capacity. Neighbour
// order (ascending id) and therefore every hop value matches bfs().
void bfs_hops(const Graph& g, NodeId source, int* hops,
              std::vector<NodeId>& queue);

// Hop distance from the nearest of `sources`, never entering a node that
// `alive` (optional, sized n) marks dead. Sources that are out of range or
// dead are skipped; dead nodes and nodes cut off from every live source
// read kUnreachable.
std::vector<int> alive_multi_bfs(const Graph& g,
                                 const std::vector<NodeId>& sources,
                                 const std::vector<char>* alive = nullptr);

// Hop-shortest path from the BFS tree's source to `target`, inclusive of
// both endpoints; empty if unreachable.
std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target);

// Convenience: deterministic hop-shortest path between two nodes.
std::vector<NodeId> hop_path(const Graph& g, NodeId from, NodeId to);

// Nodes within `limit` hops of `source` (including source itself),
// ascending id — the k-hop neighbourhood used by the distributed algorithm.
std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source,
                                       int limit);

// Dijkstra over *node* weights: the cost of a path is the sum of weight[k]
// for every node k on the path including both endpoints, matching the
// paper's path contention cost (Eq. 2). Cost from a node to itself is 0.
// Tie-breaking: lower cost first, then fewer hops, then smaller parent id.
struct NodeWeightedPaths {
  NodeId source = kInvalidNode;
  std::vector<double> cost;    // kInfCost if unreachable; 0 at source
  std::vector<NodeId> parent;  // kInvalidNode for source / unreachable
};

NodeWeightedPaths dijkstra_node_weights(const Graph& g, NodeId source,
                                        const std::vector<double>& weight);

// Classic edge-weighted Dijkstra. Tie-breaking: lower cost, then smaller
// parent id — deterministic path trees for the Steiner expansion step.
struct EdgeWeightedPaths {
  NodeId source = kInvalidNode;
  std::vector<double> cost;       // kInfCost if unreachable
  std::vector<NodeId> parent;     // kInvalidNode for source / unreachable
  std::vector<EdgeId> parent_edge;  // edge to parent, -1 if none
};

// Edge weights aligned with adj.incident: slot_weights(adj, w)[k] =
// w[adj.incident[k]], so a CSR relaxation loop reads them contiguously.
std::vector<double> slot_weights(const CsrAdjacency& adj,
                                 const std::vector<double>& weight);

// `adj` is an optional pre-built CSR copy of g's adjacency (build_csr):
// callers running many sources over one graph build it once and amortize
// the flattening; when null, a local copy is built. `slot_weight` is an
// optional array aligned with adj.incident (slot_weight[k] =
// weight[adj.incident[k]]) that turns the per-relaxation weight gather
// into a contiguous read; it requires `adj`. The result does not depend
// on whether either is supplied. Runs one BoundedDijkstra search with no
// stop condition.
EdgeWeightedPaths dijkstra_edge_weights(
    const Graph& g, NodeId source, const std::vector<double>& weight,
    const CsrAdjacency* adj = nullptr,
    const std::vector<double>* slot_weight = nullptr);

// Single-source searches over reusable scratch, for callers that run many
// short searches on one graph (the KMB metric closure of
// steiner::try_steiner_mst_approx_sets). Scratch is sized once and reset
// through the nodes the previous search touched, so a search costs what it
// explores, not O(n). Costs and parents follow dijkstra_edge_weights'
// rules (lower cost, then smaller parent id; the heap pops ascending
// (cost, node id)) over the graph in which every blocked node other than
// the source keeps its incoming edges but has no outgoing ones. So every
// settled node whose shortest paths avoid the blocked nodes gets the full
// run's cost and parent edge, bit for bit; any other settled node's cost
// can only be larger.
class BoundedDijkstra {
 public:
  // `adj` and `slot_weight` (aligned with adj.incident, see
  // dijkstra_edge_weights) must outlive the runner.
  BoundedDijkstra(const CsrAdjacency& adj,
                  const std::vector<double>& slot_weight);

  // One search from `source`. `blocked` (optional, n entries) flags the
  // nodes that are settled but never expanded. The search stops once every
  // node of `targets` is settled (never early when `targets` is empty), at
  // the first pop whose cost exceeds `limit`, or when the heap runs dry.
  void run(NodeId source, std::span<const NodeId> targets = {},
           const std::vector<char>* blocked = nullptr,
           double limit = kInfCost);

  // The last search's cost of v, kInfCost unless v was settled.
  double cost(NodeId v) const;
  // The edge to v's parent in the last search; -1 for the source and for
  // nodes it did not settle.
  EdgeId parent_edge(NodeId v) const;

 private:
  // Packed so that one relaxation touches one cache line.
  struct NodeState {
    double cost = kInfCost;
    NodeId parent = kInvalidNode;
    EdgeId parent_edge = -1;
    int pos = -1;  // -1 never enqueued, -2 settled, else the heap slot
  };
  const CsrAdjacency* adj_;
  const std::vector<double>* slot_weight_;
  std::vector<NodeState> state_;
  std::vector<char> target_;
  std::vector<NodeId> touched_;           // nodes whose state_ is set
  std::vector<unsigned __int128> heap_;   // packed (cost bits, id) keys
};

// Nearest-seed partition from one multi-source Dijkstra sweep — the
// Voronoi decomposition at the heart of Mehlhorn's Steiner construction.
// Every node is labelled with the seed it is closest to; parent chains
// walk back toward that seed. One O(m log n) sweep replaces |seeds|
// single-source runs when only nearest-seed information is needed.
//
// Tie-breaking matches dijkstra_edge_weights exactly (lower cost, then
// smaller parent id; the heap pops ascending (cost, node id)), so the
// partition is deterministic and independent of the seed order. Seeds have
// cost 0, themselves as `nearest`, and no parent.
struct VoronoiPartition {
  std::vector<double> cost;         // distance to the nearest seed
  std::vector<NodeId> nearest;      // owning seed; kInvalidNode if unreached
  std::vector<NodeId> parent;       // kInvalidNode for seeds / unreachable
  std::vector<EdgeId> parent_edge;  // edge to parent, -1 if none
};

// `seeds` must be non-empty, in-range, and duplicate-free. `adj` /
// `slot_weight` follow the dijkstra_edge_weights contract (optional
// prebuilt CSR adjacency and slot-aligned weights; the result does not
// depend on whether either is supplied).
VoronoiPartition voronoi_partition(
    const Graph& g, const std::vector<NodeId>& seeds,
    const std::vector<double>& weight, const CsrAdjacency* adj = nullptr,
    const std::vector<double>* slot_weight = nullptr);

// Floyd–Warshall over explicit edge weights (dense). Used as an oracle in
// tests.
std::vector<std::vector<double>> floyd_warshall(
    const Graph& g, const std::vector<double>& edge_weight);

}  // namespace faircache::graph
