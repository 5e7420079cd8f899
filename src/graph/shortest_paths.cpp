#include "graph/shortest_paths.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <tuple>


namespace faircache::graph {

BfsTree bfs(const Graph& g, NodeId source) {
  FAIRCACHE_CHECK(g.contains(source), "bfs source out of range");
  BfsTree tree;
  tree.source = source;
  tree.hops.assign(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  tree.parent.assign(static_cast<std::size_t>(g.num_nodes()), kInvalidNode);

  std::queue<NodeId> frontier;
  tree.hops[static_cast<std::size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId w : g.neighbors(v)) {  // ascending id — deterministic
      if (tree.hops[static_cast<std::size_t>(w)] == kUnreachable) {
        tree.hops[static_cast<std::size_t>(w)] =
            tree.hops[static_cast<std::size_t>(v)] + 1;
        tree.parent[static_cast<std::size_t>(w)] = v;
        frontier.push(w);
      }
    }
  }
  return tree;
}

std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target) {
  FAIRCACHE_CHECK(target >= 0 &&
                      target < static_cast<NodeId>(tree.hops.size()),
                  "path target out of range");
  if (tree.hops[static_cast<std::size_t>(target)] == kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode;
       v = tree.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> hop_path(const Graph& g, NodeId from, NodeId to) {
  return extract_path(bfs(g, from), to);
}

void bfs_hops(const Graph& g, NodeId source, int* hops,
              std::vector<NodeId>& queue) {
  FAIRCACHE_CHECK(g.contains(source), "bfs source out of range");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::fill(hops, hops + n, kUnreachable);
  queue.clear();
  hops[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (NodeId w : g.neighbors(v)) {  // ascending id — deterministic
      if (hops[static_cast<std::size_t>(w)] == kUnreachable) {
        hops[static_cast<std::size_t>(w)] =
            hops[static_cast<std::size_t>(v)] + 1;
        queue.push_back(w);
      }
    }
  }
}

std::vector<int> alive_multi_bfs(const Graph& g,
                                 const std::vector<NodeId>& sources,
                                 const std::vector<char>* alive) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  FAIRCACHE_CHECK(alive == nullptr || alive->size() == n,
                  "liveness mask size mismatch");
  const auto is_alive = [&](NodeId v) {
    return alive == nullptr || (*alive)[static_cast<std::size_t>(v)] != 0;
  };
  std::vector<int> dist(n, kUnreachable);
  std::vector<NodeId> queue;
  for (NodeId s : sources) {
    if (!g.contains(s) || !is_alive(s)) continue;
    if (dist[static_cast<std::size_t>(s)] == 0) continue;
    dist[static_cast<std::size_t>(s)] = 0;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (NodeId w : g.neighbors(v)) {
      if (!is_alive(w)) continue;
      if (dist[static_cast<std::size_t>(w)] == kUnreachable) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(v)] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source,
                                       int limit) {
  FAIRCACHE_CHECK(limit >= 0, "negative hop limit");
  const BfsTree tree = bfs(g, source);
  std::vector<NodeId> result;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int h = tree.hops[static_cast<std::size_t>(v)];
    if (h != kUnreachable && h <= limit) result.push_back(v);
  }
  return result;
}

NodeWeightedPaths dijkstra_node_weights(const Graph& g, NodeId source,
                                        const std::vector<double>& weight) {
  FAIRCACHE_CHECK(g.contains(source), "dijkstra source out of range");
  FAIRCACHE_CHECK(static_cast<int>(weight.size()) == g.num_nodes(),
                  "weight vector size mismatch");
  for (double w : weight) {
    FAIRCACHE_CHECK(w >= 0, "node weights must be non-negative");
  }

  NodeWeightedPaths out;
  out.source = source;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out.cost.assign(n, kInfCost);
  out.parent.assign(n, kInvalidNode);
  std::vector<int> hops(n, kUnreachable);

  // Priority: (cost, hops, node id) — fully deterministic ordering.
  using Entry = std::tuple<double, int, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  // Self access costs nothing (c_ii = 0, DESIGN.md §2.2): the source's own
  // weight is only charged once a path actually leaves the node, so a
  // single-node "path" is free while any real path includes both endpoints.
  out.cost[static_cast<std::size_t>(source)] = 0.0;
  hops[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0.0, 0, source);

  std::vector<char> settled(n, 0);
  while (!heap.empty()) {
    const auto [cost, hop, v] = heap.top();
    heap.pop();
    if (settled[static_cast<std::size_t>(v)]) continue;
    settled[static_cast<std::size_t>(v)] = 1;
    // Leaving the source for the first time charges the source's weight.
    const double base =
        v == source ? weight[static_cast<std::size_t>(source)] : cost;
    for (NodeId w : g.neighbors(v)) {
      if (settled[static_cast<std::size_t>(w)]) continue;
      const double cand = base + weight[static_cast<std::size_t>(w)];
      const int cand_hops = hop + 1;
      auto& cur = out.cost[static_cast<std::size_t>(w)];
      auto& cur_hops = hops[static_cast<std::size_t>(w)];
      auto& cur_parent = out.parent[static_cast<std::size_t>(w)];
      const bool better =
          cand < cur || (cand == cur && cand_hops < cur_hops) ||
          (cand == cur && cand_hops == cur_hops && v < cur_parent);
      if (better) {
        cur = cand;
        cur_hops = cand_hops;
        cur_parent = v;
        heap.emplace(cand, cand_hops, w);
      }
    }
  }
  return out;
}

namespace {

// Indexed 4-ary min-heap machinery shared by the edge-weighted Dijkstra
// variants. Keys pack the cost's bit pattern and the node id into one
// 96-bit integer: path costs are sums of non-negative weights, and
// non-negative IEEE doubles compare identically to their bit patterns, so a
// single integer compare gives the lexicographic (cost, id) order without
// any FP-compare branching. The pop sequence is the same as a lazy-deletion
// binary heap's — both always yield the live entry with the smallest
// (cost, id) pair — but decrease-key replaces stale duplicates, so the heap
// never exceeds the frontier size.
//
// pos: kUnvisited → never enqueued, kSettled → popped, otherwise the node's
// heap slot. `State` is any per-node struct with an `int pos` field; the
// heap keeps state[key_id(k)].pos in sync with the key's slot.
using HeapKey = unsigned __int128;

constexpr int kUnvisited = -1;
constexpr int kSettled = -2;

inline HeapKey make_key(double cost, NodeId id) {
  return (HeapKey{std::bit_cast<std::uint64_t>(cost)} << 32) |
         HeapKey{static_cast<std::uint32_t>(id)};
}
inline NodeId key_id(HeapKey k) {
  return static_cast<NodeId>(static_cast<std::uint32_t>(k));
}
inline double key_cost(HeapKey k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k >> 32));
}

template <typename State>
struct IndexedCostHeap {
  std::vector<HeapKey> slots;
  State* state = nullptr;

  bool empty() const { return slots.empty(); }

  void sift_up(std::size_t k, HeapKey v) {
    while (k > 0) {
      const std::size_t p = (k - 1) / 4;
      if (v >= slots[p]) break;
      slots[k] = slots[p];
      state[static_cast<std::size_t>(key_id(slots[k]))].pos =
          static_cast<int>(k);
      k = p;
    }
    slots[k] = v;
    state[static_cast<std::size_t>(key_id(v))].pos = static_cast<int>(k);
  }

  void sift_down(std::size_t k, HeapKey v) {
    const std::size_t sz = slots.size();
    for (;;) {
      const std::size_t first = 4 * k + 1;
      if (first >= sz) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, sz);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (slots[c] < slots[best]) best = c;
      }
      if (slots[best] >= v) break;
      slots[k] = slots[best];
      state[static_cast<std::size_t>(key_id(slots[k]))].pos =
          static_cast<int>(k);
      k = best;
    }
    slots[k] = v;
    state[static_cast<std::size_t>(key_id(v))].pos = static_cast<int>(k);
  }

  // Marks the min entry settled and removes it; returns its key.
  HeapKey pop_min() {
    const HeapKey top = slots[0];
    const HeapKey tail = slots.back();
    slots.pop_back();
    state[static_cast<std::size_t>(key_id(top))].pos = kSettled;
    if (!slots.empty()) sift_down(0, tail);
    return top;
  }

  // Inserts node w with the given key, or decreases its existing key.
  void push_or_decrease(double cost, NodeId w, int pos) {
    if (pos == kUnvisited) {
      slots.emplace_back();
      sift_up(slots.size() - 1, make_key(cost, w));
    } else {
      sift_up(static_cast<std::size_t>(pos), make_key(cost, w));
    }
  }
};

const CsrAdjacency* resolve_adjacency(const Graph& g, const CsrAdjacency* adj,
                                      const std::vector<double>* slot_weight,
                                      CsrAdjacency& local) {
  if (adj == nullptr) {
    FAIRCACHE_CHECK(slot_weight == nullptr,
                    "slot_weight requires a csr adjacency");
    local = build_csr(g);
    adj = &local;
  }
  FAIRCACHE_CHECK(
      adj->offset.size() == static_cast<std::size_t>(g.num_nodes()) + 1,
      "csr adjacency size mismatch");
  FAIRCACHE_CHECK(
      slot_weight == nullptr || slot_weight->size() == adj->incident.size(),
      "slot weight size mismatch");
  return adj;
}

}  // namespace

std::vector<double> slot_weights(const CsrAdjacency& adj,
                                 const std::vector<double>& weight) {
  std::vector<double> slot_weight(adj.incident.size());
  for (std::size_t k = 0; k < adj.incident.size(); ++k) {
    slot_weight[k] = weight[static_cast<std::size_t>(adj.incident[k])];
  }
  return slot_weight;
}

EdgeWeightedPaths dijkstra_edge_weights(const Graph& g, NodeId source,
                                        const std::vector<double>& weight,
                                        const CsrAdjacency* adj,
                                        const std::vector<double>* slot_weight) {
  FAIRCACHE_CHECK(g.contains(source), "dijkstra source out of range");
  FAIRCACHE_CHECK(static_cast<int>(weight.size()) == g.num_edges(),
                  "edge weight vector size mismatch");
  CsrAdjacency local;
  adj = resolve_adjacency(g, adj, slot_weight, local);
  std::vector<double> local_slot_weight;
  if (slot_weight == nullptr) {
    local_slot_weight = slot_weights(*adj, weight);
    slot_weight = &local_slot_weight;
  }
  BoundedDijkstra search(*adj, *slot_weight);
  search.run(source);

  EdgeWeightedPaths out;
  out.source = source;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out.cost.resize(n);
  out.parent.resize(n, kInvalidNode);
  out.parent_edge.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto node = static_cast<NodeId>(v);
    out.cost[v] = search.cost(node);
    out.parent_edge[v] = search.parent_edge(node);
    if (out.parent_edge[v] >= 0) {
      const Edge& edge = g.edge(out.parent_edge[v]);
      out.parent[v] = edge.u == node ? edge.v : edge.u;
    }
  }
  return out;
}

BoundedDijkstra::BoundedDijkstra(const CsrAdjacency& adj,
                                 const std::vector<double>& slot_weight)
    : adj_(&adj),
      slot_weight_(&slot_weight),
      state_(adj.offset.size() - 1),
      target_(adj.offset.size() - 1, 0) {
  FAIRCACHE_CHECK(slot_weight.size() == adj.incident.size(),
                  "slot weight size mismatch");
}

void BoundedDijkstra::run(NodeId source, std::span<const NodeId> targets,
                          const std::vector<char>* blocked, double limit) {
  FAIRCACHE_CHECK(source >= 0 && static_cast<std::size_t>(source) <
                                     state_.size(),
                  "dijkstra source out of range");
  FAIRCACHE_CHECK(blocked == nullptr || blocked->size() == state_.size(),
                  "blocked flag vector size mismatch");
  for (NodeId v : touched_) state_[static_cast<std::size_t>(v)] = {};
  touched_.clear();
  int wanted = 0;
  for (NodeId t : targets) {
    FAIRCACHE_CHECK(t >= 0 && static_cast<std::size_t>(t) < state_.size(),
                    "dijkstra target out of range");
    char& flag = target_[static_cast<std::size_t>(t)];
    wanted += flag == 0;
    flag = 1;
  }
  const bool stop_at_targets = wanted > 0;

  IndexedCostHeap<NodeState> heap{std::move(heap_), state_.data()};
  heap.slots.clear();
  state_[static_cast<std::size_t>(source)].cost = 0.0;
  state_[static_cast<std::size_t>(source)].pos = 0;
  touched_.push_back(source);
  heap.slots.push_back(make_key(0.0, source));
  while (!heap.empty() && key_cost(heap.slots[0]) <= limit) {
    const HeapKey top = heap.pop_min();
    const NodeId v = key_id(top);
    const double cost = key_cost(top);
    if (target_[static_cast<std::size_t>(v)] != 0 && stop_at_targets &&
        --wanted == 0) {
      break;  // every target is final now
    }
    if (v != source && blocked != nullptr &&
        (*blocked)[static_cast<std::size_t>(v)] != 0) {
      continue;
    }
    const int end = adj_->offset[static_cast<std::size_t>(v) + 1];
    for (int k = adj_->offset[static_cast<std::size_t>(v)]; k < end; ++k) {
      const NodeId w = adj_->neighbor[static_cast<std::size_t>(k)];
      NodeState& ws = state_[static_cast<std::size_t>(w)];
      if (ws.pos == kSettled) continue;
      const double ew = (*slot_weight_)[static_cast<std::size_t>(k)];
      FAIRCACHE_DCHECK(ew >= 0, "edge weights must be non-negative");
      const double cand = cost + ew;
      if (cand < ws.cost || (cand == ws.cost && v < ws.parent)) {
        if (ws.pos == kUnvisited) touched_.push_back(w);
        ws.cost = cand;
        ws.parent = v;
        ws.parent_edge = adj_->incident[static_cast<std::size_t>(k)];
        heap.push_or_decrease(cand, w, ws.pos);
      }
    }
  }
  heap_ = std::move(heap.slots);
  for (NodeId t : targets) target_[static_cast<std::size_t>(t)] = 0;
}

double BoundedDijkstra::cost(NodeId v) const {
  const NodeState& vs = state_[static_cast<std::size_t>(v)];
  return vs.pos == kSettled ? vs.cost : kInfCost;
}

EdgeId BoundedDijkstra::parent_edge(NodeId v) const {
  const NodeState& vs = state_[static_cast<std::size_t>(v)];
  return vs.pos == kSettled ? vs.parent_edge : -1;
}

VoronoiPartition voronoi_partition(const Graph& g,
                                   const std::vector<NodeId>& seeds,
                                   const std::vector<double>& weight,
                                   const CsrAdjacency* adj,
                                   const std::vector<double>* slot_weight) {
  FAIRCACHE_CHECK(!seeds.empty(), "voronoi partition needs at least one seed");
  FAIRCACHE_CHECK(static_cast<int>(weight.size()) == g.num_edges(),
                  "edge weight vector size mismatch");
  CsrAdjacency local;
  adj = resolve_adjacency(g, adj, slot_weight, local);

  const auto n = static_cast<std::size_t>(g.num_nodes());
  struct NodeState {
    double cost = kInfCost;
    NodeId nearest = kInvalidNode;
    NodeId parent = kInvalidNode;
    EdgeId parent_edge = -1;
    int pos = kUnvisited;
  };
  std::vector<NodeState> state(n);
  IndexedCostHeap<NodeState> heap{{}, state.data()};

  // Seed every region at cost 0. A seed is never re-parented: a 0-cost
  // relaxation ties on cost and loses the `v < parent` comparison against
  // kInvalidNode, exactly as the single-source run protects its source.
  heap.slots.reserve(seeds.size());
  for (NodeId s : seeds) {
    FAIRCACHE_CHECK(g.contains(s), "voronoi seed out of range");
    NodeState& ss = state[static_cast<std::size_t>(s)];
    FAIRCACHE_CHECK(ss.pos == kUnvisited, "duplicate voronoi seed");
    ss.cost = 0.0;
    ss.nearest = s;
    heap.slots.push_back(make_key(0.0, s));
    heap.sift_up(heap.slots.size() - 1, heap.slots.back());
  }

  while (!heap.empty()) {
    const HeapKey top = heap.pop_min();
    const NodeId v = key_id(top);
    const double cost = key_cost(top);
    const NodeId owner = state[static_cast<std::size_t>(v)].nearest;
    const int end = adj->offset[static_cast<std::size_t>(v) + 1];
    for (int k = adj->offset[static_cast<std::size_t>(v)]; k < end; ++k) {
      const NodeId w = adj->neighbor[static_cast<std::size_t>(k)];
      NodeState& ws = state[static_cast<std::size_t>(w)];
      if (ws.pos == kSettled) continue;
      const EdgeId e = adj->incident[static_cast<std::size_t>(k)];
      const double ew = slot_weight != nullptr
                            ? (*slot_weight)[static_cast<std::size_t>(k)]
                            : weight[static_cast<std::size_t>(e)];
      FAIRCACHE_DCHECK(ew >= 0, "edge weights must be non-negative");
      const double cand = cost + ew;
      if (cand < ws.cost || (cand == ws.cost && v < ws.parent)) {
        ws.cost = cand;
        ws.nearest = owner;
        ws.parent = v;
        ws.parent_edge = e;
        heap.push_or_decrease(cand, w, ws.pos);
      }
    }
  }

  VoronoiPartition out;
  out.cost.resize(n);
  out.nearest.resize(n);
  out.parent.resize(n);
  out.parent_edge.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    out.cost[v] = state[v].cost;
    out.nearest[v] = state[v].nearest;
    out.parent[v] = state[v].parent;
    out.parent_edge[v] = state[v].parent_edge;
  }
  return out;
}

std::vector<std::vector<double>> floyd_warshall(
    const Graph& g, const std::vector<double>& edge_weight) {
  FAIRCACHE_CHECK(static_cast<int>(edge_weight.size()) == g.num_edges(),
                  "edge weight vector size mismatch");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInfCost));
  for (std::size_t v = 0; v < n; ++v) d[v][v] = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const double w = edge_weight[static_cast<std::size_t>(e)];
    FAIRCACHE_CHECK(w >= 0, "edge weights must be non-negative");
    const auto u = static_cast<std::size_t>(edge.u);
    const auto v = static_cast<std::size_t>(edge.v);
    d[u][v] = std::min(d[u][v], w);
    d[v][u] = std::min(d[v][u], w);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInfCost) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (d[k][j] == kInfCost) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

}  // namespace faircache::graph
