#include "steiner/steiner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <span>
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

// A terminal set of a KMB batch, sorted and deduplicated, with the metric
// closure among its terminals: closure[a·|T| + b] = d(terminals[a],
// terminals[b]) for a < b, the only entries Prim reads.
struct ClosureSet {
  std::vector<NodeId> terminals;
  std::vector<double> closure;
};

// A node settled by a closure run and the edge to its parent in that run.
// A run keeps only the parent chains of the terminals it settled, sorted
// by node; the expansion of its closure edges walks nothing else.
struct ChainLink {
  NodeId node;
  EdgeId parent_edge;
};

// True when every weight is a positive integer and the weights sum to less
// than 2^53: then every path cost is an exact sum, and a path through a
// further node costs at least 1 more than its part up to that node.
bool exact_positive_integers(const std::vector<double>& edge_weight) {
  double total = 0.0;
  for (double w : edge_weight) {
    if (!(w >= 1.0) || w != std::floor(w)) return false;
    total += w;
  }
  return total < 0x1p53;
}

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

// Shared tail of both engines: the MST of the union subgraph (the expanded
// closure edges may form cycles), then repeated pruning of non-terminal
// leaves. `union_edges` may hold duplicates.
SteinerTree finish_tree(const Graph& g, const std::vector<double>& edge_weight,
                        std::vector<EdgeId> union_edges,
                        const std::vector<char>& is_terminal) {
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
  SteinerTree result;
  result.edges =
      prune_non_terminal_leaves(g, std::move(tree_edges), is_terminal);
  for (EdgeId e : result.edges) {
    result.cost += edge_weight[static_cast<std::size_t>(e)];
  }
  return result;
}

// Steps 2–5 of the KMB engine for one set: Prim over its metric closure,
// expansion of the selected closure edges into real graph edges along the
// closure runs' parent chains, then the shared tail. `chains[a]` holds the
// parent chains of the run from terminals[a].
util::Result<SteinerTree> closure_tree(
    const Graph& g, const std::vector<double>& edge_weight,
    const ClosureSet& set, const std::vector<ChainLink>* chains,
    const util::RunBudget& budget) {
  // 2. MST of the terminal metric closure. Closure edge {a, b} (a < b)
  // carries the triple (w, a, b) with w = d(terminals[a], terminals[b]);
  // (w, a, b) is a strict total order, so the MST under it is unique and
  // any cut-rule algorithm finds it. Prim with full-triple comparisons
  // therefore selects exactly the edges Kruskal over the sorted closure
  // would, without materializing or sorting the T² edge list. The edge set
  // produced by the expansion below is sorted and deduplicated afterwards,
  // so discovery order does not matter either.
  const std::vector<NodeId>& terminals = set.terminals;
  const std::size_t nt = terminals.size();
  std::vector<char> in_tree(nt, 0);
  std::vector<double> key_w(nt, kInfCost);  // best crossing edge per node
  std::vector<std::size_t> key_a(nt, 0), key_b(nt, 0);
  std::vector<EdgeId> union_edges;
  const auto closure_cost = [&](std::size_t a, std::size_t b) {
    return set.closure[a * nt + b];
  };
  in_tree[0] = 1;
  for (std::size_t u = 1; u < nt; ++u) {
    key_w[u] = closure_cost(0, u);
    key_a[u] = 0;
    key_b[u] = u;
  }
  for (std::size_t added = 1; added < nt; ++added) {
    if (budget.expired()) return budget.status("steiner closure MST");
    std::size_t o = nt;
    for (std::size_t u = 0; u < nt; ++u) {
      if (in_tree[u]) continue;
      if (o == nt ||
          std::tie(key_w[u], key_a[u], key_b[u]) <
              std::tie(key_w[o], key_a[o], key_b[o])) {
        o = u;
      }
    }
    if (key_w[o] == kInfCost) {
      return util::Status::infeasible("terminals are not mutually reachable");
    }
    in_tree[o] = 1;
    // 3. Expand the selected closure edge into real graph edges along the
    // shortest path from terminal key_a[o] to terminal key_b[o].
    const NodeId source = terminals[key_a[o]];
    const std::vector<ChainLink>& chain = chains[key_a[o]];
    for (NodeId v = terminals[key_b[o]]; v != source;) {
      const EdgeId e =
          std::lower_bound(chain.begin(), chain.end(), v,
                           [](const ChainLink& link, NodeId node) {
                             return link.node < node;
                           })
              ->parent_edge;
      union_edges.push_back(e);
      const auto& edge = g.edge(e);
      v = edge.u == v ? edge.v : edge.u;
    }
    for (std::size_t u = 0; u < nt; ++u) {
      if (in_tree[u]) continue;
      const std::size_t a = std::min(o, u);
      const std::size_t b = std::max(o, u);
      const double w = closure_cost(a, b);
      if (std::tie(w, a, b) < std::tie(key_w[u], key_a[u], key_b[u])) {
        key_w[u] = w;
        key_a[u] = a;
        key_b[u] = b;
      }
    }
  }
  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId t : terminals) is_terminal[static_cast<std::size_t>(t)] = 1;
  return finish_tree(g, edge_weight, std::move(union_edges), is_terminal);
}

// Kruskal over the Voronoi boundary candidates of `terminals`: every edge
// crossing two regions proposes a terminal-graph edge of weight
// dist(u, s(u)) + w(e) + dist(v, s(v)). Mehlhorn's lemma: the terminal
// graph induced by these candidates contains an MST of the full terminal
// metric closure, so Kruskal over them selects a closure MST (a spanning
// forest when the terminals are not mutually reachable). Calls
// on_select(w, e) for each selected candidate, in selection order, and
// returns how many it selected.
template <typename OnSelect>
std::size_t mehlhorn_terminal_mst(const Graph& g,
                                  const std::vector<NodeId>& terminals,
                                  const graph::VoronoiPartition& vor,
                                  const std::vector<double>& edge_weight,
                                  OnSelect&& on_select) {
  // Dense terminal-id → terminal-ordinal map for the Kruskal union-find.
  std::vector<int> ordinal(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    ordinal[static_cast<std::size_t>(terminals[t])] = static_cast<int>(t);
  }

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

  DisjointSet dsu(terminals.size());
  std::size_t joined = 0;
  for (const Candidate& c : candidates) {
    if (joined + 1 == terminals.size()) break;
    if (!dsu.unite(static_cast<std::size_t>(ordinal[
                       static_cast<std::size_t>(c.a)]),
                   static_cast<std::size_t>(ordinal[
                       static_cast<std::size_t>(c.b)]))) {
      continue;
    }
    ++joined;
    on_select(c.w, c.e);
  }
  return joined;
}

// The KMB engine over a batch of normalized sets, each with at least two
// terminals. 1. One shortest-path run per (set, terminal a), in parallel
// with per-worker scratch. Prim reads closure entries (a, b) with a < b
// only, so the run from terminals[a] stops once terminals[a+1..] are
// settled (the last terminal runs nothing), and the expansion walks parent
// chains of settled nodes, all final by then.
//
// When exact_positive_integers(edge_weight) holds, two limits make a run
// far shorter without changing any output bit. It never expands out of
// another terminal of its set, and it stops at the first pop whose cost
// exceeds B, the bottleneck of the set's Mehlhorn terminal MST. The
// argument: if a shortest a–b path passes through another terminal c, then
// d(a, c) < d(a, b) and d(c, b) < d(a, b), so {a, b} is the strict maximum
// of the triangle a–c–b under Prim's (w, a, b) order and not in the unique
// closure MST. So every shortest path of an MST edge {a, b} — and every
// tight predecessor the least-id parent rule can pick on the walk back
// from b — avoids the other terminals and lies within d(a, b) ≤ B: the
// limited run yields the full run's distance and parent chain for every
// MST edge. Every other closure entry can only grow (+inf when unsettled),
// and raising edges outside a unique MST leaves it unchanged, so Prim
// selects the same closure edges and expands them along the same paths.
// For any other weights the runs go with both limits off.
//
// One work unit is charged per distinct terminal, at its first run in set
// order. Then steps 2–5 run per set: trees[i] receives set i's tree, and
// the returned status[i] is non-OK when set i failed.
std::vector<util::Status> closure_trees(
    const Graph& g, const std::vector<double>& edge_weight,
    std::vector<ClosureSet>& sets, int threads, const util::RunBudget& budget,
    std::vector<SteinerTree>& trees) {
  if (sets.empty()) return {};
  const auto n = static_cast<std::size_t>(g.num_nodes());
  struct Run {
    std::size_t set, row;
    bool charge;  // the first run of its terminal in set order
  };
  std::vector<Run> runs;
  std::vector<std::size_t> first_run;
  std::vector<char> seen(n, 0);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    ClosureSet& set = sets[s];
    set.closure.resize(set.terminals.size() * set.terminals.size());
    first_run.push_back(runs.size());
    for (std::size_t a = 0; a < set.terminals.size(); ++a) {
      char& was_seen = seen[static_cast<std::size_t>(set.terminals[a])];
      runs.push_back({s, a, was_seen == 0});
      was_seen = 1;
    }
  }

  const graph::CsrAdjacency adj = graph::build_csr(g);
  const std::vector<double> slot_weight =
      graph::slot_weights(adj, edge_weight);
  const bool limited = exact_positive_integers(edge_weight);
  threads = util::resolve_parallel_threads(threads, runs.size());
  std::vector<double> bottleneck(sets.size(), kInfCost);
  if (limited) {
    util::parallel_for(
        sets.size(),
        [&](std::size_t s) {
          const std::vector<NodeId>& terminals = sets[s].terminals;
          const graph::VoronoiPartition vor = graph::voronoi_partition(
              g, terminals, edge_weight, &adj, &slot_weight);
          double& b = bottleneck[s] = 0.0;
          mehlhorn_terminal_mst(g, terminals, vor, edge_weight,
                                [&](double w, EdgeId) { b = std::max(b, w); });
        },
        threads, budget);
  }

  std::vector<std::vector<ChainLink>> chains(runs.size());
  std::vector<graph::BoundedDijkstra> search(
      static_cast<std::size_t>(threads),
      graph::BoundedDijkstra(adj, slot_weight));
  // Per worker: the current set's terminals, then the chain nodes kept.
  std::vector<std::vector<char>> is_terminal(
      static_cast<std::size_t>(threads), std::vector<char>(n, 0));
  std::vector<std::vector<char>> kept(static_cast<std::size_t>(threads),
                                      std::vector<char>(n, 0));
  util::parallel_for(
      runs.size(),
      [&](std::size_t r, int worker) {
        const Run& run = runs[r];
        if (run.charge) budget.charge();
        ClosureSet& set = sets[run.set];
        const std::vector<NodeId>& terminals = set.terminals;
        const std::size_t nt = terminals.size();
        if (run.row + 1 == nt) return;
        const auto w = static_cast<std::size_t>(worker);
        graph::BoundedDijkstra& dijkstra = search[w];
        std::vector<char>& terminal = is_terminal[w];
        const NodeId source = terminals[run.row];
        for (NodeId t : terminals) terminal[static_cast<std::size_t>(t)] = 1;
        dijkstra.run(source,
                     std::span<const NodeId>(terminals).subspan(run.row + 1),
                     limited ? &terminal : nullptr, bottleneck[run.set]);
        for (NodeId t : terminals) terminal[static_cast<std::size_t>(t)] = 0;

        // The closure row, and the parent chains back to the source; a
        // chain stops where it meets one already kept.
        double* row = set.closure.data() + run.row * nt;
        std::vector<ChainLink>& chain = chains[r];
        std::vector<char>& on_chain = kept[w];
        for (std::size_t b = run.row + 1; b < nt; ++b) {
          row[b] = dijkstra.cost(terminals[b]);
          if (row[b] == kInfCost) continue;
          for (NodeId v = terminals[b];
               v != source && !on_chain[static_cast<std::size_t>(v)];) {
            on_chain[static_cast<std::size_t>(v)] = 1;
            const EdgeId e = dijkstra.parent_edge(v);
            chain.push_back({v, e});
            const auto& edge = g.edge(e);
            v = edge.u == v ? edge.v : edge.u;
          }
        }
        for (const ChainLink& link : chain) {
          on_chain[static_cast<std::size_t>(link.node)] = 0;
        }
        std::sort(chain.begin(), chain.end(),
                  [](const ChainLink& x, const ChainLink& y) {
                    return x.node < y.node;
                  });
      },
      threads, budget);
  std::vector<util::Status> status(sets.size());
  if (budget.expired()) {
    // The runs drained early; some closures are missing.
    for (util::Status& st : status) {
      st = budget.status("steiner closure runs");
    }
    return status;
  }
  trees.resize(sets.size());
  util::parallel_for(sets.size(), [&](std::size_t s) {
    util::Result<SteinerTree> tree = closure_tree(
        g, edge_weight, sets[s], chains.data() + first_run[s], budget);
    if (tree.ok()) {
      trees[s] = std::move(tree).value();
    } else {
      status[s] = tree.status();
    }
  });
  return status;
}

// The Mehlhorn engine: one multi-source Dijkstra partitions the graph into
// terminal Voronoi regions, Kruskal over the boundary candidates selects a
// closure MST, and every selected candidate expands to the two walks back
// to the owning terminals plus the crossing edge itself — the KMB analysis
// carries over unchanged at O(m log n) total instead of |T| single-source
// runs.
util::Result<std::vector<EdgeId>> voronoi_union_edges(
    const Graph& g, const std::vector<NodeId>& terminals,
    const graph::CsrAdjacency& adj, const std::vector<double>& slot_weight,
    const std::vector<double>& edge_weight, const util::RunBudget& budget) {
  budget.charge();  // one unit: the single multi-source sweep
  const graph::VoronoiPartition vor =
      graph::voronoi_partition(g, terminals, edge_weight, &adj, &slot_weight);
  if (budget.expired()) return budget.status("steiner voronoi sweep");

  std::vector<EdgeId> union_edges;
  const auto walk_to_seed = [&](NodeId from) {
    for (NodeId x = from;
         vor.parent[static_cast<std::size_t>(x)] != kInvalidNode;
         x = vor.parent[static_cast<std::size_t>(x)]) {
      union_edges.push_back(vor.parent_edge[static_cast<std::size_t>(x)]);
    }
  };
  const std::size_t joined = mehlhorn_terminal_mst(
      g, terminals, vor, edge_weight, [&](double, EdgeId e) {
        const auto& edge = g.edge(e);
        walk_to_seed(edge.u);
        walk_to_seed(edge.v);
        union_edges.push_back(e);
      });
  if (joined + 1 != terminals.size()) {
    return util::Status::infeasible("terminals are not mutually reachable");
  }
  if (budget.expired()) return budget.status("steiner voronoi terminal MST");
  return union_edges;
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
    std::vector<NodeId> terminals, int threads,
    const util::RunBudget& budget, Engine engine) {
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  if (util::Status st = normalize_terminals(g, terminals); !st.ok()) {
    return st;
  }
  if (terminals.size() == 1) return SteinerTree{};

  if (engine == Engine::kClosureKmb) {
    std::vector<ClosureSet> sets(1);
    sets[0].terminals = std::move(terminals);
    std::vector<SteinerTree> trees;
    const std::vector<util::Status> status =
        closure_trees(g, edge_weight, sets, threads, budget, trees);
    if (!status[0].ok()) return status[0];
    return std::move(trees[0]);
  }

  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId t : terminals) is_terminal[static_cast<std::size_t>(t)] = 1;
  const graph::CsrAdjacency adj = graph::build_csr(g);
  const std::vector<double> slot_weight =
      graph::slot_weights(adj, edge_weight);
  util::Result<std::vector<EdgeId>> union_edges = voronoi_union_edges(
      g, terminals, adj, slot_weight, edge_weight, budget);
  if (!union_edges.ok()) return union_edges.status();
  return finish_tree(g, edge_weight, std::move(union_edges).value(),
                     is_terminal);
}

util::Result<std::vector<SteinerTree>> try_steiner_mst_approx_sets(
    const Graph& g, const std::vector<double>& edge_weight,
    const std::vector<std::vector<NodeId>>& terminal_sets,
    const util::RunBudget& budget) {
  if (static_cast<int>(edge_weight.size()) != g.num_edges()) {
    return util::Status::invalid_input("edge weight vector size mismatch");
  }
  // Sets that need a tree go to the shared closure engine; the first
  // failure in set order wins, as in a loop of single-set calls.
  std::vector<util::Status> input_status(terminal_sets.size());
  std::vector<ClosureSet> sets;
  std::vector<std::size_t> batch_index(terminal_sets.size(), 0);
  for (std::size_t i = 0; i < terminal_sets.size(); ++i) {
    std::vector<NodeId> terminals = terminal_sets[i];
    input_status[i] = normalize_terminals(g, terminals);
    if (input_status[i].ok() && terminals.size() > 1) {
      batch_index[i] = sets.size() + 1;
      sets.push_back({std::move(terminals), {}});
    }
  }
  std::vector<SteinerTree> batch_trees;
  const std::vector<util::Status> status =
      closure_trees(g, edge_weight, sets, 0, budget, batch_trees);
  std::vector<SteinerTree> trees(terminal_sets.size());
  for (std::size_t i = 0; i < terminal_sets.size(); ++i) {
    if (!input_status[i].ok()) return input_status[i];
    if (batch_index[i] == 0) continue;  // one terminal: the empty tree
    const std::size_t b = batch_index[i] - 1;
    if (!status[b].ok()) return status[b];
    trees[i] = std::move(batch_trees[b]);
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
