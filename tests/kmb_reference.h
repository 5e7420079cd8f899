#pragma once

// The KMB construction without any run pruning, the reference that
// steiner::try_steiner_mst_approx(…, Engine::kClosureKmb) and
// steiner::try_steiner_mst_approx_sets must reproduce bit for bit: one full
// graph::dijkstra_edge_weights per terminal, Prim over the whole metric
// closure under the (w, a, b) order, expansion of the selected closure
// edges along the full runs' parent edges, Kruskal over the union sorted
// by (w, edge id), and steiner::prune_non_terminal_leaves. Header-only and
// free of gtest, so the fuzz targets can use it too.

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <tuple>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_paths.h"
#include "steiner/steiner.h"
#include "util/status.h"

namespace faircache::testutil {

inline util::Result<steiner::SteinerTree> kmb_reference(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<graph::NodeId> terminals) {
  using graph::EdgeId;
  using graph::NodeId;
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  if (terminals.empty()) {
    return util::Status::invalid_input("need at least one terminal");
  }
  for (NodeId t : terminals) {
    if (!g.contains(t)) {
      return util::Status::invalid_input("terminal out of range");
    }
  }
  const std::size_t nt = terminals.size();
  if (nt == 1) return steiner::SteinerTree{};

  std::vector<graph::EdgeWeightedPaths> runs;
  for (NodeId t : terminals) {
    runs.push_back(graph::dijkstra_edge_weights(g, t, edge_weight));
  }
  const auto closure = [&](std::size_t a, std::size_t b) {
    return runs[a].cost[static_cast<std::size_t>(terminals[b])];
  };

  // Prim from terminal 0; closure edge {a, b}, a < b, is keyed (w, a, b).
  std::vector<char> in_tree(nt, 0);
  std::vector<std::tuple<double, std::size_t, std::size_t>> key(nt);
  in_tree[0] = 1;
  for (std::size_t u = 1; u < nt; ++u) key[u] = {closure(0, u), 0, u};
  std::vector<EdgeId> union_edges;
  for (std::size_t added = 1; added < nt; ++added) {
    std::size_t o = nt;
    for (std::size_t u = 0; u < nt; ++u) {
      if (!in_tree[u] && (o == nt || key[u] < key[o])) o = u;
    }
    const auto [w, a, b] = key[o];
    if (w == graph::kInfCost) {
      return util::Status::infeasible("terminals are not mutually reachable");
    }
    in_tree[o] = 1;
    for (NodeId v = terminals[b]; v != terminals[a];
         v = runs[a].parent[static_cast<std::size_t>(v)]) {
      union_edges.push_back(runs[a].parent_edge[static_cast<std::size_t>(v)]);
    }
    for (std::size_t u = 0; u < nt; ++u) {
      if (in_tree[u]) continue;
      const std::size_t lo = std::min(o, u);
      const std::size_t hi = std::max(o, u);
      key[u] = std::min(key[u], std::tuple{closure(lo, hi), lo, hi});
    }
  }

  // Kruskal over the union, then the leaf prune.
  std::sort(union_edges.begin(), union_edges.end());
  union_edges.erase(std::unique(union_edges.begin(), union_edges.end()),
                    union_edges.end());
  std::sort(union_edges.begin(), union_edges.end(), [&](EdgeId x, EdgeId y) {
    return std::tie(edge_weight[static_cast<std::size_t>(x)], x) <
           std::tie(edge_weight[static_cast<std::size_t>(y)], y);
  });
  std::vector<std::size_t> root(static_cast<std::size_t>(g.num_nodes()));
  std::iota(root.begin(), root.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  std::vector<EdgeId> mst;
  for (EdgeId e : union_edges) {
    const std::size_t ru = find(static_cast<std::size_t>(g.edge(e).u));
    const std::size_t rv = find(static_cast<std::size_t>(g.edge(e).v));
    if (ru == rv) continue;
    root[ru] = rv;
    mst.push_back(e);
  }
  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId t : terminals) is_terminal[static_cast<std::size_t>(t)] = 1;
  steiner::SteinerTree tree;
  tree.edges = steiner::prune_non_terminal_leaves(g, std::move(mst),
                                                  is_terminal);
  for (EdgeId e : tree.edges) {
    tree.cost += edge_weight[static_cast<std::size_t>(e)];
  }
  return tree;
}

// One reference tree per set, in set order; the first failing set's status
// wins, as in try_steiner_mst_approx_sets.
inline util::Result<std::vector<steiner::SteinerTree>> kmb_reference_sets(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    const std::vector<std::vector<graph::NodeId>>& terminal_sets) {
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  std::vector<steiner::SteinerTree> trees;
  for (const auto& set : terminal_sets) {
    util::Result<steiner::SteinerTree> tree =
        kmb_reference(g, edge_weight, set);
    if (!tree.ok()) return tree.status();
    trees.push_back(std::move(tree).value());
  }
  return trees;
}

}  // namespace faircache::testutil
