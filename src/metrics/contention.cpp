#include "metrics/contention.h"

#include <algorithm>

#include "graph/shortest_paths.h"
#include "util/parallel.h"

namespace faircache::metrics {

std::vector<double> node_contention(const graph::Graph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    w[static_cast<std::size_t>(v)] = static_cast<double>(g.degree(v));
  }
  return w;
}

std::vector<double> contention_weights(const graph::Graph& g,
                                       const CacheState& state) {
  FAIRCACHE_CHECK(state.num_nodes() == g.num_nodes(),
                  "cache state / graph size mismatch");
  std::vector<double> w = node_contention(g);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    w[static_cast<std::size_t>(v)] *= 1.0 + static_cast<double>(state.used(v));
  }
  return w;
}

std::vector<double> contention_edge_costs(const graph::Graph& g,
                                          const std::vector<double>& weight) {
  std::vector<double> cost(static_cast<std::size_t>(g.num_edges()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    cost[static_cast<std::size_t>(e)] =
        weight[static_cast<std::size_t>(edge.u)] +
        weight[static_cast<std::size_t>(edge.v)];
  }
  return cost;
}

ContentionRowBuilder::ContentionRowBuilder(const graph::Graph& g,
                                           const graph::CsrAdjacency& adj,
                                           const std::vector<double>& weight,
                                           PathPolicy policy)
    : g_(&g), adj_(&adj), weight_(&weight), policy_(policy) {
  if (policy == PathPolicy::kHopShortest) {
    node_.resize(weight.size());
    for (std::size_t i = 0; i < weight.size(); ++i) {
      node_[i] = {weight[i], 0};
    }
  }
}

void ContentionRowBuilder::build(graph::NodeId i, double* row) {
  const std::size_t n = adj_->offset.size() - 1;
  if (policy_ == PathPolicy::kMinContention) {
    const auto paths = graph::dijkstra_node_weights(*g_, i, *weight_);
    std::copy(paths.cost.begin(), paths.cost.end(), row);
    return;
  }
  // c_i· row: walk the deterministic BFS tree from i and accumulate weights
  // along parent chains, cost[j] = cost[parent] + w[j], seeded with w[i]
  // charged once a path leaves i. The BFS visit order processes every
  // parent before its children, so the accumulation is a single sweep;
  // each c_ij is the sum of weights along the unique tree path, associated
  // leaf-to-root, which is exactly the value the seed implementation
  // produced.
  order_.reserve(n);
  const int gen = ++generation_;
  order_.clear();
  NodeEntry* node = node_.data();
  row[static_cast<std::size_t>(i)] = 0.0;
  node[static_cast<std::size_t>(i)].stamp = gen;
  order_.push_back(i);
  const int* offset = adj_->offset.data();
  const graph::NodeId* neighbor = adj_->neighbor.data();
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const graph::NodeId v = order_[head];
    const double base = v == i ? node[static_cast<std::size_t>(i)].weight
                               : row[static_cast<std::size_t>(v)];
    const int end = offset[v + 1];
    for (int k = offset[v]; k < end; ++k) {  // ascending id — deterministic
      const auto wi = static_cast<std::size_t>(neighbor[k]);
      if (node[wi].stamp == gen) continue;
      node[wi].stamp = gen;
      row[wi] = base + node[wi].weight;
      order_.push_back(neighbor[k]);
    }
  }
  if (order_.size() < n) {  // disconnected graph: unreached = ∞
    for (std::size_t j = 0; j < n; ++j) {
      if (node[j].stamp != gen) row[j] = graph::kInfCost;
    }
  }
}

ContentionMatrix::ContentionMatrix(const graph::Graph& g,
                                   const CacheState& state, PathPolicy policy)
    : policy_(policy) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::vector<double> weight = contention_weights(g, state);
  // Every entry is written below (the row builders cover unreachable nodes
  // explicitly), so skip the 8n² zero fill.
  cost_.assign_no_init(n, n);
  const int threads = util::resolve_parallel_threads(0, n);
  const graph::CsrAdjacency adj = graph::build_csr(g);
  std::vector<ContentionRowBuilder> builders(
      static_cast<std::size_t>(threads),
      ContentionRowBuilder(g, adj, weight, policy));
  util::parallel_for(
      n,
      [&](std::size_t i, int worker) {
        builders[static_cast<std::size_t>(worker)].build(
            static_cast<graph::NodeId>(i), cost_[i]);
      },
      threads);

  edge_cost_ = contention_edge_costs(g, weight);
}

}  // namespace faircache::metrics
