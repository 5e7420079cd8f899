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

namespace {

// Per-worker scratch for the hop-shortest row builder: the BFS frontier
// (which doubles as the parent-before-child processing order) and a packed
// (weight, visit stamp) entry per node, reused across all sources a worker
// handles. The stamp replaces a full kInfCost row pre-fill — each row entry
// is written exactly once on connected graphs — and packing it next to the
// node weight makes the relaxation a single-stream read.
struct HopRowScratch {
  struct NodeEntry {
    double weight;
    int stamp;
  };
  std::vector<graph::NodeId> order;
  std::vector<NodeEntry> node;
  int generation = 0;

  void init(const std::vector<double>& weight) {
    node.resize(weight.size());
    for (std::size_t i = 0; i < weight.size(); ++i) {
      node[i] = {weight[i], 0};
    }
    generation = 0;
  }
};

// c_i· row: walk the deterministic BFS tree from i and accumulate weights
// along parent chains, cost[j] = cost[parent] + w[j], seeded with w[i]
// charged once a path leaves i. The BFS visit order processes every parent
// before its children, so the accumulation is a single sweep; each c_ij is
// the sum of weights along the unique tree path, associated leaf-to-root,
// which is exactly the value the seed implementation produced.
void hop_shortest_row(const graph::CsrAdjacency& adj, graph::NodeId i,
                      double* row, HopRowScratch& scratch) {
  const std::size_t n = adj.offset.size() - 1;
  scratch.order.reserve(n);
  const int gen = ++scratch.generation;
  scratch.order.clear();
  HopRowScratch::NodeEntry* node = scratch.node.data();
  row[static_cast<std::size_t>(i)] = 0.0;
  node[static_cast<std::size_t>(i)].stamp = gen;
  scratch.order.push_back(i);
  const int* offset = adj.offset.data();
  const graph::NodeId* neighbor = adj.neighbor.data();
  for (std::size_t head = 0; head < scratch.order.size(); ++head) {
    const graph::NodeId v = scratch.order[head];
    const double base = v == i ? node[static_cast<std::size_t>(i)].weight
                               : row[static_cast<std::size_t>(v)];
    const int end = offset[v + 1];
    for (int k = offset[v]; k < end; ++k) {  // ascending id — deterministic
      const auto wi = static_cast<std::size_t>(neighbor[k]);
      if (node[wi].stamp == gen) continue;
      node[wi].stamp = gen;
      row[wi] = base + node[wi].weight;
      scratch.order.push_back(neighbor[k]);
    }
  }
  if (scratch.order.size() < n) {  // disconnected graph: unreached = ∞
    for (std::size_t j = 0; j < n; ++j) {
      if (node[j].stamp != gen) row[j] = graph::kInfCost;
    }
  }
}

}  // namespace

ContentionMatrix::ContentionMatrix(const graph::Graph& g,
                                   const CacheState& state, PathPolicy policy)
    : policy_(policy) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::vector<double> weight = contention_weights(g, state);
  // Every entry is written below (the row builders cover unreachable nodes
  // explicitly), so skip the 8n² zero fill.
  cost_.assign_no_init(n, n);
  const int threads = util::resolve_parallel_threads(0, n);

  // Per-worker running maxima, folded sequentially after the join — max is
  // exact (no rounding), so the two-level reduction matches the old full
  // matrix scan bit for bit at any thread count.
  std::vector<double> worker_max(static_cast<std::size_t>(threads), 0.0);
  const auto fold_row_max = [&worker_max](const double* row, std::size_t n,
                                          int worker) {
    double m = worker_max[static_cast<std::size_t>(worker)];
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] != graph::kInfCost && row[j] > m) m = row[j];
    }
    worker_max[static_cast<std::size_t>(worker)] = m;
  };

  if (policy == PathPolicy::kHopShortest) {
    const graph::CsrAdjacency adj = graph::build_csr(g);
    std::vector<HopRowScratch> scratch(static_cast<std::size_t>(threads));
    for (HopRowScratch& s : scratch) s.init(weight);
    util::parallel_for(
        n,
        [&](std::size_t i, int worker) {
          hop_shortest_row(adj, static_cast<graph::NodeId>(i), cost_[i],
                           scratch[static_cast<std::size_t>(worker)]);
          fold_row_max(cost_[i], n, worker);
        },
        threads);
  } else {
    util::parallel_for(
        n,
        [&](std::size_t i, int worker) {
          const auto paths =
              graph::dijkstra_node_weights(g, static_cast<graph::NodeId>(i),
                                           weight);
          std::copy(paths.cost.begin(), paths.cost.end(), cost_[i]);
          fold_row_max(cost_[i], n, worker);
        },
        threads);
  }

  edge_cost_ = contention_edge_costs(g, weight);

  max_cost_ = 0.0;
  for (const double m : worker_max) max_cost_ = std::max(max_cost_, m);
}

}  // namespace faircache::metrics
