#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/latency_model.h"
#include "steiner/steiner.h"

namespace faircache::sim {

using graph::NodeId;

TrafficResult simulate_access_phase(const graph::Graph& g,
                                    const metrics::CacheState& state,
                                    const TrafficOptions& options) {
  FAIRCACHE_CHECK(state.num_nodes() == g.num_nodes(),
                  "state / graph size mismatch");
  FAIRCACHE_CHECK(options.num_chunks >= 0, "negative chunk count");

  TrafficResult result;
  const NodeId producer = state.producer();

  // Per-node service times (DCF model) and next-free times.
  std::vector<double> service(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    service[static_cast<std::size_t>(v)] =
        metrics::hop_delay_us(g, state, v, metrics::DcfParameters{});
  }
  std::vector<double> busy_until(static_cast<std::size_t>(g.num_nodes()),
                                 0.0);

  // Build all fetches with their paths (hop-nearest copy, smallest-id tie
  // break via multi-source BFS over sorted sources).
  struct Fetch {
    FetchRecord record;
    std::vector<NodeId> path;  // requester → source order of traversal
    std::size_t next_hop = 0;  // index into path of the next node to seize
  };
  std::vector<Fetch> fetches;

  for (metrics::ChunkId chunk = 0; chunk < options.num_chunks; ++chunk) {
    std::vector<NodeId> sources = state.holders(chunk);
    sources.push_back(producer);
    std::sort(sources.begin(), sources.end());

    // BFS per source is fine at these sizes; pick nearest (ties: smaller
    // source id wins because sources are scanned in ascending order).
    std::vector<graph::BfsTree> trees;
    trees.reserve(sources.size());
    for (NodeId s : sources) trees.push_back(graph::bfs(g, s));

    for (NodeId j = 0; j < g.num_nodes(); ++j) {
      if (j == producer) continue;
      int best_hops = graph::kUnreachable;
      std::size_t best_src = 0;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        const int h = trees[s].hops[static_cast<std::size_t>(j)];
        if (h < best_hops) {
          best_hops = h;
          best_src = s;
        }
      }
      FAIRCACHE_CHECK(best_hops != graph::kUnreachable,
                      "requester cannot reach any copy");
      Fetch fetch;
      fetch.record.requester = j;
      fetch.record.chunk = chunk;
      fetch.record.source = sources[best_src];
      // Path from source tree: source → j; the data travels that way.
      fetch.path = graph::extract_path(trees[best_src], j);
      fetch.record.start_us =
          options.stagger_us * static_cast<double>(fetches.size());
      fetches.push_back(std::move(fetch));
    }
  }

  // Discrete-event loop: each fetch seizes its path nodes in order; a node
  // serves one transmission at a time (FIFO by event time, deterministic
  // tie-break by fetch index).
  using Event = std::tuple<double, std::size_t>;  // (ready time, fetch idx)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::size_t f = 0; f < fetches.size(); ++f) {
    events.emplace(fetches[f].record.start_us, f);
  }

  while (!events.empty()) {
    const auto [ready, f] = events.top();
    events.pop();
    Fetch& fetch = fetches[f];
    if (fetch.next_hop >= fetch.path.size()) continue;
    const NodeId node = fetch.path[fetch.next_hop];
    auto& free_at = busy_until[static_cast<std::size_t>(node)];
    const double begin = std::max(ready, free_at);
    const double done = begin + service[static_cast<std::size_t>(node)];
    free_at = done;
    ++fetch.next_hop;
    if (fetch.next_hop >= fetch.path.size()) {
      fetch.record.finish_us = done;
    } else {
      events.emplace(done, f);
    }
  }

  // Collect statistics.
  std::vector<double> latencies;
  latencies.reserve(fetches.size());
  for (auto& fetch : fetches) {
    // Self-service (requester holds the chunk): path length 1, finish may
    // still include one service slot — that is the local read cost.
    result.makespan_us =
        std::max(result.makespan_us, fetch.record.finish_us);
    latencies.push_back(fetch.record.latency_us());
    result.fetches.push_back(std::move(fetch.record));
  }
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double l : latencies) sum += l;
    result.mean_latency_us = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    // Nearest-rank p95: the ⌈0.95·N⌉-th smallest value, 1-indexed. The
    // double literal 0.95 rounds below the exact ratio, so at N = 20k the
    // product stays just under the integer and ceil still lands on rank
    // 19k — never one past it; for N < 20 the rank is N (the maximum).
    // Pinned by TrafficTest.P95NearestRank* in tests/extensions_test.cpp.
    const std::size_t p95 = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(
            std::ceil(0.95 * static_cast<double>(latencies.size())) - 1));
    result.p95_latency_us = latencies[p95];
    result.max_latency_us = latencies.back();
  }
  return result;
}

DisseminationResult simulate_dissemination_phase(
    const graph::Graph& g, const metrics::CacheState& state,
    const TrafficOptions& options) {
  FAIRCACHE_CHECK(state.num_nodes() == g.num_nodes(),
                  "state / graph size mismatch");

  DisseminationResult result;
  result.chunk_completion_us.assign(
      static_cast<std::size_t>(options.num_chunks), 0.0);

  std::vector<double> service(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    service[static_cast<std::size_t>(v)] =
        metrics::hop_delay_us(g, state, v, metrics::DcfParameters{});
  }
  std::vector<double> busy_until(static_cast<std::size_t>(g.num_nodes()),
                                 0.0);

  // The dissemination edge costs of the evaluator's model.
  const std::vector<double> edge_cost = metrics::contention_edge_costs(
      g, metrics::contention_weights(g, state));

  // Every cached chunk's tree, from one batch of Voronoi sweeps.
  std::vector<metrics::ChunkId> cached;
  std::vector<std::vector<NodeId>> terminal_sets;
  for (metrics::ChunkId chunk = 0; chunk < options.num_chunks; ++chunk) {
    std::vector<NodeId> terminals = state.holders(chunk);
    if (terminals.empty()) continue;
    terminals.push_back(state.producer());
    cached.push_back(chunk);
    terminal_sets.push_back(std::move(terminals));
  }
  const std::vector<steiner::SteinerTree> trees =
      steiner::try_steiner_mst_approx_sets(g, edge_cost, terminal_sets)
          .value();

  for (std::size_t c = 0; c < cached.size(); ++c) {
    const metrics::ChunkId chunk = cached[c];
    const steiner::SteinerTree& tree = trees[c];

    // Tree adjacency; BFS from the producer defines forwarding order.
    std::vector<std::vector<NodeId>> tree_adj(
        static_cast<std::size_t>(g.num_nodes()));
    for (graph::EdgeId e : tree.edges) {
      tree_adj[static_cast<std::size_t>(g.edge(e).u)].push_back(
          g.edge(e).v);
      tree_adj[static_cast<std::size_t>(g.edge(e).v)].push_back(
          g.edge(e).u);
    }

    // Event-driven push: (ready time, node) — node forwards to unvisited
    // tree children one at a time, each transmission seizing the sender.
    std::vector<char> received(static_cast<std::size_t>(g.num_nodes()), 0);
    received[static_cast<std::size_t>(state.producer())] = 1;
    using Event = std::tuple<double, NodeId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    events.emplace(0.0, state.producer());
    double completion = 0.0;

    while (!events.empty()) {
      const auto [ready, v] = events.top();
      events.pop();
      double cursor =
          std::max(ready, busy_until[static_cast<std::size_t>(v)]);
      for (NodeId w : tree_adj[static_cast<std::size_t>(v)]) {
        if (received[static_cast<std::size_t>(w)]) continue;
        received[static_cast<std::size_t>(w)] = 1;
        cursor += service[static_cast<std::size_t>(v)];
        ++result.transmissions;
        completion = std::max(completion, cursor);
        events.emplace(cursor, w);
      }
      busy_until[static_cast<std::size_t>(v)] = cursor;
    }
    result.chunk_completion_us[static_cast<std::size_t>(chunk)] = completion;
    result.makespan_us = std::max(result.makespan_us, completion);
  }
  return result;
}

}  // namespace faircache::sim
