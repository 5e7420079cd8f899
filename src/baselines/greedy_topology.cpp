#include "baselines/greedy_topology.h"

#include <algorithm>
#include <limits>

#include "graph/shortest_paths.h"
#include "metrics/cache_state.h"
#include "steiner/steiner.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace faircache::baselines {

using graph::Graph;
using graph::NodeId;

namespace {

// One worker's rows d(i, ·) under the configured metric, computed on an
// *empty* cache state — these baselines never look at cached data.
class MetricRows {
 public:
  MetricRows(const Graph& g, BaselineMetric metric,
             const graph::CsrAdjacency& adj,
             const std::vector<double>& weight)
      : g_(&g),
        metric_(metric),
        contention_(g, adj, weight, metrics::PathPolicy::kHopShortest),
        row_(static_cast<std::size_t>(g.num_nodes())) {
    if (metric == BaselineMetric::kHopCount) hops_.resize(row_.size());
  }

  // d(i, j) for every j; kInfCost when unreachable.
  const std::vector<double>& build(NodeId i) {
    if (metric_ == BaselineMetric::kContention) {
      contention_.build(i, row_.data());
      return row_;
    }
    graph::bfs_hops(*g_, i, hops_.data(), queue_);
    for (std::size_t j = 0; j < row_.size(); ++j) {
      row_[j] = hops_[j] == graph::kUnreachable
                    ? graph::kInfCost
                    : static_cast<double>(hops_[j]);
    }
    return row_;
  }

 private:
  const Graph* g_;
  BaselineMetric metric_;
  metrics::ContentionRowBuilder contention_;
  std::vector<double> row_;
  std::vector<int> hops_;
  std::vector<NodeId> queue_;
};

}  // namespace

std::vector<NodeId> select_cache_set(const Graph& g, NodeId producer,
                                     BaselineMetric metric,
                                     double tree_weight) {
  FAIRCACHE_CHECK(g.contains(producer), "producer out of range");
  const auto n = static_cast<std::size_t>(g.num_nodes());

  // Contention with an empty cache (S ≡ 0) is the Sung et al. model; Hopc
  // weighs every tree edge 1.
  std::vector<double> weight;
  std::vector<double> edge_weight(static_cast<std::size_t>(g.num_edges()),
                                  1.0);
  if (metric == BaselineMetric::kContention) {
    weight = metrics::contention_weights(
        g, metrics::CacheState(g.num_nodes(), 1, /*producer=*/0));
    edge_weight = metrics::contention_edge_costs(g, weight);
  }
  const graph::CsrAdjacency adj = graph::build_csr(g);

  // Candidate evaluations are independent: score them all in parallel,
  // then pick the winner with the reference's ascending-id scan (so ties
  // still resolve to the smaller id).
  const int threads = util::resolve_parallel_threads(0, n);
  std::vector<MetricRows> rows(static_cast<std::size_t>(threads),
                               MetricRows(g, metric, adj, weight));
  std::vector<std::vector<NodeId>> terminals(
      static_cast<std::size_t>(threads));
  std::vector<double> cand_cost(n);

  // nearest[j]: d(j) to the producer or the closest open node. A
  // candidate's access is Σ_j min(nearest[j], d(i, j)) in ascending j, the
  // same per-client minimum and summation order as scoring the whole set.
  std::vector<NodeId> open;
  std::vector<double> nearest = rows[0].build(producer);
  double current = 0.0;
  for (double d : nearest) current += d;

  std::vector<char> is_open(n, 0);
  for (;;) {
    util::parallel_for(
        n,
        [&](std::size_t ii, int worker) {
          const auto i = static_cast<NodeId>(ii);
          if (i == producer || is_open[ii]) return;
          const auto w = static_cast<std::size_t>(worker);
          const std::vector<double>& row = rows[w].build(i);
          double access = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            access += std::min(nearest[j], row[j]);
          }
          std::vector<NodeId>& t = terminals[w];
          t.assign(open.begin(), open.end());
          t.push_back(i);
          t.push_back(producer);
          const double tree =
              steiner::try_steiner_mst_approx(g, edge_weight, t).value().cost;
          cand_cost[ii] = access + tree_weight * tree;
        },
        threads);
    NodeId best_node = graph::kInvalidNode;
    double best_cost = current - 1e-9;  // must strictly improve
    for (NodeId i = 0; i < g.num_nodes(); ++i) {
      if (i == producer || is_open[static_cast<std::size_t>(i)]) continue;
      if (cand_cost[static_cast<std::size_t>(i)] < best_cost) {
        best_cost = cand_cost[static_cast<std::size_t>(i)];
        best_node = i;
      }
    }
    if (best_node == graph::kInvalidNode) break;
    open.push_back(best_node);
    is_open[static_cast<std::size_t>(best_node)] = 1;
    current = best_cost;
    const std::vector<double>& row = rows[0].build(best_node);
    for (std::size_t j = 0; j < n; ++j) {
      nearest[j] = std::min(nearest[j], row[j]);
    }
  }
  std::sort(open.begin(), open.end());
  return open;
}

core::FairCachingResult GreedyTopologyCaching::run(
    const core::FairCachingProblem& problem) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  util::Stopwatch clock;

  core::FairCachingResult result;
  result.algorithm = name();
  result.state = problem.make_initial_state();
  result.placements.resize(static_cast<std::size_t>(problem.num_chunks));
  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    result.placements[static_cast<std::size_t>(chunk)].chunk = chunk;
  }

  // Tree weight (λ = 1, as in the paper, times the load factor): a chosen
  // node ends up holding ~capacity chunks, so dissemination traffic
  // through it contends with 1 + capacity chunk streams (Eq. 2's 1 + S(k)
  // at the final state).
  double avg_capacity = 0.0;
  for (NodeId v = 0; v < problem.network->num_nodes(); ++v) {
    avg_capacity += static_cast<double>(result.state.capacity(v));
  }
  avg_capacity /= static_cast<double>(problem.network->num_nodes());
  const double tree_weight = 1.0 + avg_capacity;

  // Round structure: select a set on the current subgraph, fill it to
  // capacity with the next chunks, then recurse on untouched nodes.
  std::vector<char> consumed(
      static_cast<std::size_t>(problem.network->num_nodes()), 0);
  metrics::ChunkId next_chunk = 0;

  while (next_chunk < problem.num_chunks) {
    // Nodes still available: never-chosen nodes plus the producer.
    std::vector<NodeId> available;
    for (NodeId v = 0; v < problem.network->num_nodes(); ++v) {
      if (!consumed[static_cast<std::size_t>(v)] || v == problem.producer) {
        available.push_back(v);
      }
    }
    if (available.size() <= 1) break;  // nothing left but the producer

    graph::Subgraph sub = graph::induced_subgraph(*problem.network,
                                                  available);
    // Restrict to the component containing the producer (the data source
    // must be reachable; the paper falls back to the largest component —
    // with the producer pinned this is the defensible variant).
    const NodeId sub_producer =
        sub.to_new[static_cast<std::size_t>(problem.producer)];
    FAIRCACHE_CHECK(sub_producer != graph::kInvalidNode,
                    "producer lost from subgraph");
    const auto labels = sub.graph.component_labels();
    const int producer_label =
        labels[static_cast<std::size_t>(sub_producer)];
    std::vector<NodeId> component;
    for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
      if (labels[static_cast<std::size_t>(v)] == producer_label) {
        component.push_back(v);
      }
    }
    if (component.size() <= 1) break;

    graph::Subgraph comp = graph::induced_subgraph(sub.graph, component);
    const NodeId comp_producer =
        comp.to_new[static_cast<std::size_t>(sub_producer)];
    const std::vector<NodeId> chosen =
        select_cache_set(comp.graph, comp_producer, metric_, tree_weight);
    if (chosen.empty()) break;  // greedy sees no benefit; stop placing

    // Map back to original ids.
    std::vector<NodeId> chosen_original;
    for (NodeId v : chosen) {
      chosen_original.push_back(
          sub.to_original[static_cast<std::size_t>(
              comp.to_original[static_cast<std::size_t>(v)])]);
    }

    // Fill the set: this round covers as many chunks as the tightest
    // member can hold.
    int round_span = std::numeric_limits<int>::max();
    for (NodeId v : chosen_original) {
      round_span = std::min(round_span, result.state.remaining(v));
    }
    round_span = std::min(round_span, problem.num_chunks - next_chunk);
    FAIRCACHE_CHECK(round_span >= 0, "negative round span");
    if (round_span == 0) break;  // zero-capacity member: cannot progress

    for (metrics::ChunkId chunk = next_chunk;
         chunk < next_chunk + round_span; ++chunk) {
      auto& placement = result.placements[static_cast<std::size_t>(chunk)];
      for (NodeId v : chosen_original) {
        if (result.state.can_cache(v, chunk)) {
          result.state.add(v, chunk);
          placement.cache_nodes.push_back(v);
        }
      }
      std::sort(placement.cache_nodes.begin(), placement.cache_nodes.end());
    }
    for (NodeId v : chosen_original) {
      consumed[static_cast<std::size_t>(v)] = 1;
    }
    next_chunk += round_span;
  }

  result.runtime_seconds = clock.elapsed_seconds();
  return result;
}

}  // namespace faircache::baselines
