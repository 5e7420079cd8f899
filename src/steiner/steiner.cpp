#include "steiner/steiner.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <tuple>

#include "graph/shortest_paths.h"
#include "util/matrix.h"
#include "util/parallel.h"

namespace faircache::steiner {

using graph::EdgeId;
using graph::Graph;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

std::vector<NodeId> SteinerTree::nodes(const Graph& g) const {
  std::set<NodeId> touched;
  for (EdgeId e : edges) {
    touched.insert(g.edge(e).u);
    touched.insert(g.edge(e).v);
  }
  return {touched.begin(), touched.end()};
}

namespace {

// Kruskal MST over an explicit weighted edge list; returns selected indexes.
struct DisjointSet {
  explicit DisjointSet(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[a] = b;
    return true;
  }
  std::vector<std::size_t> parent;
};

// Sorts and deduplicates `terminals` in place; kInvalidInput for an empty
// set or an id outside g.
util::Status normalize_terminals(const Graph& g,
                                 std::vector<NodeId>& terminals) {
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
  return util::Status();
}

// The tail of the construction: the MST of the union subgraph (the
// expanded closure edges may form cycles), then repeated pruning of
// non-terminal leaves. `union_edges` may hold duplicates.
SteinerTree finish_tree(const Graph& g, const std::vector<double>& edge_weight,
                        std::vector<EdgeId> union_edges,
                        const std::vector<NodeId>& terminals) {
  std::sort(union_edges.begin(), union_edges.end());
  union_edges.erase(std::unique(union_edges.begin(), union_edges.end()),
                    union_edges.end());

  // 4. MST of the union subgraph.
  std::vector<EdgeId> candidates = std::move(union_edges);
  std::sort(candidates.begin(), candidates.end(),
            [&](EdgeId x, EdgeId y) {
              const double wx = edge_weight[static_cast<std::size_t>(x)];
              const double wy = edge_weight[static_cast<std::size_t>(y)];
              return std::tie(wx, x) < std::tie(wy, y);
            });
  DisjointSet node_dsu(static_cast<std::size_t>(g.num_nodes()));
  std::vector<EdgeId> tree_edges;
  for (EdgeId e : candidates) {
    const auto& edge = g.edge(e);
    if (node_dsu.unite(static_cast<std::size_t>(edge.u),
                       static_cast<std::size_t>(edge.v))) {
      tree_edges.push_back(e);
    }
  }

  // 5. Prune non-terminal leaves repeatedly.
  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId t : terminals) is_terminal[static_cast<std::size_t>(t)] = 1;
  SteinerTree result;
  result.edges =
      prune_non_terminal_leaves(g, std::move(tree_edges), is_terminal);
  for (EdgeId e : result.edges) {
    result.cost += edge_weight[static_cast<std::size_t>(e)];
  }
  return result;
}

// Mehlhorn's construction for one normalized set of two or more
// terminals over `adj` (build_csr(g)) and `slot_weight`
// (slot_weights(adj, edge_weight)). 1. One multi-source Dijkstra
// partitions the graph into terminal Voronoi regions. 2. Every edge
// crossing two regions proposes a terminal-graph edge of weight
// dist(u, s(u)) + w(e) + dist(v, s(v)); by Mehlhorn's lemma the terminal
// graph these candidates induce contains an MST of the full terminal
// metric closure, so Kruskal over them selects a closure MST. 3. Every
// selected candidate expands to the two walks back to its owning
// terminals plus the crossing edge itself. 4–5. finish_tree. The KMB
// analysis carries over unchanged at O(m log n) total. Charges one work
// unit for the sweep.
util::Result<SteinerTree> voronoi_tree(
    const Graph& g, const std::vector<double>& edge_weight,
    const std::vector<NodeId>& terminals, const graph::CsrAdjacency& adj,
    const std::vector<double>& slot_weight, const util::RunBudget& budget) {
  budget.charge();
  const graph::VoronoiPartition vor =
      graph::voronoi_partition(g, terminals, edge_weight, &adj, &slot_weight);
  if (budget.expired()) return budget.status("steiner voronoi sweep");

  // Boundary candidates. (w, a, b, e) with the unique edge id last is a
  // strict total order, so the sort — and therefore the Kruskal selection —
  // is deterministic even among equal-weight parallel candidates.
  struct Candidate {
    double w;
    NodeId a, b;  // terminal pair, a < b
    EdgeId e;     // the crossing edge
  };
  std::vector<Candidate> candidates;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const NodeId su = vor.nearest[static_cast<std::size_t>(edge.u)];
    const NodeId sv = vor.nearest[static_cast<std::size_t>(edge.v)];
    if (su == sv || su == kInvalidNode || sv == kInvalidNode) continue;
    const double w = vor.cost[static_cast<std::size_t>(edge.u)] +
                     edge_weight[static_cast<std::size_t>(e)] +
                     vor.cost[static_cast<std::size_t>(edge.v)];
    candidates.push_back({w, std::min(su, sv), std::max(su, sv), e});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return std::tie(x.w, x.a, x.b, x.e) <
                     std::tie(y.w, y.a, y.b, y.e);
            });

  // Kruskal over terminal ordinals, expanding each selected candidate.
  std::vector<int> ordinal(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    ordinal[static_cast<std::size_t>(terminals[t])] = static_cast<int>(t);
  }
  const auto ordinal_of = [&](NodeId t) {
    return static_cast<std::size_t>(ordinal[static_cast<std::size_t>(t)]);
  };
  std::vector<EdgeId> union_edges;
  const auto walk_to_seed = [&](NodeId from) {
    for (NodeId x = from;
         vor.parent[static_cast<std::size_t>(x)] != kInvalidNode;
         x = vor.parent[static_cast<std::size_t>(x)]) {
      union_edges.push_back(vor.parent_edge[static_cast<std::size_t>(x)]);
    }
  };
  DisjointSet dsu(terminals.size());
  std::size_t joined = 0;
  for (const Candidate& c : candidates) {
    if (joined + 1 == terminals.size()) break;
    if (!dsu.unite(ordinal_of(c.a), ordinal_of(c.b))) continue;
    ++joined;
    const auto& edge = g.edge(c.e);
    walk_to_seed(edge.u);
    walk_to_seed(edge.v);
    union_edges.push_back(c.e);
  }
  if (joined + 1 != terminals.size()) {
    return util::Status::infeasible("terminals are not mutually reachable");
  }
  if (budget.expired()) return budget.status("steiner voronoi terminal MST");
  return finish_tree(g, edge_weight, std::move(union_edges), terminals);
}

}  // namespace

std::vector<EdgeId> prune_non_terminal_leaves(
    const Graph& g, std::vector<EdgeId> tree_edges,
    const std::vector<char>& is_terminal) {
  FAIRCACHE_CHECK(
      is_terminal.size() == static_cast<std::size_t>(g.num_nodes()),
      "terminal flag vector size mismatch");
  if (!tree_edges.empty()) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    // Degree-decrement worklist: removing a leaf edge only ever creates a
    // new candidate at its surviving endpoint, so each edge and node is
    // touched O(1) times — no per-pass O(V) degree rebuilds, which went
    // quadratic on long dangling paths.
    std::vector<int> degree(n, 0);
    for (EdgeId e : tree_edges) {
      ++degree[static_cast<std::size_t>(g.edge(e).u)];
      ++degree[static_cast<std::size_t>(g.edge(e).v)];
    }
    // CSR of tree-edge indexes per node, with a per-node skip cursor.
    std::vector<std::size_t> offset(n + 1, 0);
    for (EdgeId e : tree_edges) {
      ++offset[static_cast<std::size_t>(g.edge(e).u) + 1];
      ++offset[static_cast<std::size_t>(g.edge(e).v) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
    std::vector<std::size_t> slot(2 * tree_edges.size());
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t idx = 0; idx < tree_edges.size(); ++idx) {
      const auto& edge = g.edge(tree_edges[idx]);
      slot[cursor[static_cast<std::size_t>(edge.u)]++] = idx;
      slot[cursor[static_cast<std::size_t>(edge.v)]++] = idx;
    }
    std::copy(offset.begin(), offset.end() - 1, cursor.begin());

    std::vector<char> removed(tree_edges.size(), 0);
    std::vector<NodeId> work;
    for (std::size_t v = 0; v < n; ++v) {
      if (degree[v] == 1 && !is_terminal[v]) {
        work.push_back(static_cast<NodeId>(v));
      }
    }
    while (!work.empty()) {
      const auto v = static_cast<std::size_t>(work.back());
      work.pop_back();
      if (degree[v] != 1) continue;  // its last edge was removed meanwhile
      std::size_t& c = cursor[v];
      while (removed[slot[c]]) ++c;
      const std::size_t idx = slot[c];
      removed[idx] = 1;
      const auto& edge = g.edge(tree_edges[idx]);
      const auto w = static_cast<std::size_t>(
          edge.u == static_cast<NodeId>(v) ? edge.v : edge.u);
      --degree[v];
      --degree[w];
      if (degree[w] == 1 && !is_terminal[w]) {
        work.push_back(static_cast<NodeId>(w));
      }
    }
    std::size_t out = 0;
    for (std::size_t idx = 0; idx < tree_edges.size(); ++idx) {
      if (!removed[idx]) tree_edges[out++] = tree_edges[idx];
    }
    tree_edges.resize(out);
  }
  std::sort(tree_edges.begin(), tree_edges.end());
  return tree_edges;
}

util::Result<SteinerTree> try_steiner_mst_approx(
    const Graph& g, const std::vector<double>& edge_weight,
    std::vector<NodeId> terminals, int, const util::RunBudget& budget,
    Engine) {
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  if (util::Status st = normalize_terminals(g, terminals); !st.ok()) {
    return st;
  }
  if (terminals.size() == 1) return SteinerTree{};
  const graph::CsrAdjacency adj = graph::build_csr(g);
  return voronoi_tree(g, edge_weight, terminals, adj,
                      graph::slot_weights(adj, edge_weight), budget);
}

util::Result<std::vector<SteinerTree>> try_steiner_mst_approx_sets(
    const Graph& g, const std::vector<double>& edge_weight,
    const std::vector<std::vector<NodeId>>& terminal_sets,
    const util::RunBudget& budget) {
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  // Normalize every set first; only sets of two or more terminals sweep.
  std::vector<std::vector<NodeId>> sets(terminal_sets);
  std::vector<util::Status> status(sets.size());
  std::vector<std::size_t> swept;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    status[i] = normalize_terminals(g, sets[i]);
    if (status[i].ok() && sets[i].size() > 1) swept.push_back(i);
  }
  std::vector<SteinerTree> trees(sets.size());
  if (!swept.empty()) {
    const graph::CsrAdjacency adj = graph::build_csr(g);
    const std::vector<double> slot_weight =
        graph::slot_weights(adj, edge_weight);
    util::parallel_for(
        swept.size(),
        [&](std::size_t k) {
          const std::size_t i = swept[k];
          util::Result<SteinerTree> tree =
              voronoi_tree(g, edge_weight, sets[i], adj, slot_weight, budget);
          if (tree.ok()) {
            trees[i] = std::move(tree).value();
          } else {
            status[i] = tree.status();
          }
        },
        0, budget);
    // Drained or not, an expired budget fails every swept set the same
    // way, whichever sets finished before it ran out.
    if (budget.expired()) {
      for (std::size_t i : swept) {
        status[i] = budget.status("steiner voronoi sweep");
      }
    }
  }
  for (const util::Status& st : status) {
    if (!st.ok()) return st;
  }
  return trees;
}

double steiner_exact_dreyfus_wagner(const Graph& g,
                                    const std::vector<double>& edge_weight,
                                    std::vector<NodeId> terminals) {
  FAIRCACHE_CHECK(static_cast<int>(edge_weight.size()) == g.num_edges(),
                  "edge weight vector size mismatch");
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  FAIRCACHE_CHECK(!terminals.empty(), "need at least one terminal");
  const std::size_t t = terminals.size();
  FAIRCACHE_CHECK(t <= 14, "Dreyfus–Wagner limited to 14 terminals");
  if (t == 1) return 0.0;

  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t full = (std::size_t{1} << t) - 1;

  // dp[mask][v] = min cost of a tree spanning terminals(mask) ∪ {v}. Flat
  // row-major storage (one allocation, cache-adjacent rows); singleton
  // rows are overwritten wholesale from the Dijkstra costs and every other
  // row is filled with +inf below, so no value-initialization is needed.
  util::Matrix<double> dp;
  dp.assign_no_init(full + 1, n);
  for (std::size_t mask = 0; mask <= full; ++mask) {
    if (mask != 0 && (mask & (mask - 1)) == 0) continue;  // seeded below
    std::fill(dp[mask], dp[mask] + n, kInfCost);
  }
  // Pairwise shortest paths seed the singleton masks.
  for (std::size_t i = 0; i < t; ++i) {
    const auto paths = graph::dijkstra_edge_weights(
        g, terminals[i], edge_weight);
    std::copy(paths.cost.begin(), paths.cost.end(),
              dp[std::size_t{1} << i]);
  }

  for (std::size_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton handled above
    double* row = dp[mask];
    // Merge step: split the terminal set at every node.
    for (std::size_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if (sub < (mask ^ sub)) break;  // each split considered once
      const double* lhs = dp[sub];
      const double* rhs = dp[mask ^ sub];
      for (std::size_t v = 0; v < n; ++v) {
        if (lhs[v] == kInfCost || rhs[v] == kInfCost) continue;
        row[v] = std::min(row[v], lhs[v] + rhs[v]);
      }
    }
    // Relax step: Dijkstra over the dp row.
    using Entry = std::tuple<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t v = 0; v < n; ++v) {
      if (row[v] != kInfCost) heap.emplace(row[v], static_cast<NodeId>(v));
    }
    std::vector<char> settled(n, 0);
    while (!heap.empty()) {
      const auto [cost, v] = heap.top();
      heap.pop();
      if (settled[static_cast<std::size_t>(v)]) continue;
      if (cost > row[static_cast<std::size_t>(v)]) continue;
      settled[static_cast<std::size_t>(v)] = 1;
      const auto nbrs = g.neighbors(v);
      const auto incs = g.incident_edges(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto w = static_cast<std::size_t>(nbrs[k]);
        const double cand =
            cost + edge_weight[static_cast<std::size_t>(incs[k])];
        if (cand < row[w]) {
          row[w] = cand;
          heap.emplace(cand, nbrs[k]);
        }
      }
    }
  }

  return dp[full][static_cast<std::size_t>(terminals[0])];
}

}  // namespace faircache::steiner
