#pragma once

// Steiner-tree construction for the dissemination phase: the selected
// caching nodes of a chunk must form a connected tree rooted at the producer
// (constraint (6) of the ILP), and the dissemination cost is the sum of the
// chosen edges' contention costs.
//
// Implementations:
//  * `try_steiner_mst_approx` — Mehlhorn's 2-approximation: one
//    multi-source Dijkstra sweep partitions the graph into terminal Voronoi
//    regions, and an MST over the region-boundary edges is an MST of the
//    terminal metric closure (Mehlhorn, Inf. Process. Lett. 27, 1988). The
//    paper cites the 1.55-ratio Robins–Zelikovsky algorithm; any
//    constant-factor tree keeps the ConFL analysis intact.
//  * `try_steiner_mst_approx_sets` — the same construction over many
//    terminal sets on one weighted graph, one sweep per set in parallel
//    (the evaluator's per-chunk dissemination trees).
//  * `steiner_exact_dreyfus_wagner` — exponential-in-|terminals| exact DP,
//    used as the optimality oracle in tests and by the tiny-instance exact
//    solver.

#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::steiner {

// The tree construction. Mehlhorn's is the only one. The enum, the engine
// argument and the thread-count argument of try_steiner_mst_approx are
// inert: they stay only while the benchmark harness names them, and go
// when it stops (ROADMAP item 5).
enum class Engine {
  kVoronoi,
};

struct SteinerTree {
  std::vector<graph::EdgeId> edges;  // tree edges (sorted, unique)
  double cost = 0.0;                 // sum of edge weights

  // All nodes touched by the tree (sorted, unique).
  std::vector<graph::NodeId> nodes(const graph::Graph& g) const;
};

// 2(1 − 1/|T|)-approximate Steiner tree connecting `terminals`
// (deduplicated; must be non-empty), from one serial multi-source sweep:
// Kruskal over the Voronoi boundary candidates selects a closure MST, each
// selected candidate expands to its crossing edge plus the sweep's parent
// chains back to both owning terminals, and the MST of that union, pruned
// of non-terminal leaves, is the tree. O(m log n). A single terminal
// yields an empty tree. The result is bit-identical at any thread count.
//
// Malformed input yields kInvalidInput, mutually unreachable terminals
// kInfeasible, and an expired util::RunBudget the budget's own reason
// (kCancelled / kDeadlineExceeded / kResourceExhausted). One work unit is
// charged for the sweep, and the budget is polled after the sweep and
// after the terminal MST. A run that completes under an unexpired budget
// is bit-identical to an unbudgeted one.
util::Result<SteinerTree> try_steiner_mst_approx(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<graph::NodeId> terminals, int /*threads*/ = 0,
    const util::RunBudget& budget = {}, Engine /*engine*/ = Engine::kVoronoi);

// One tree per terminal set, over one graph and one weight vector:
// trees[i] is bit-identical to
// try_steiner_mst_approx(g, edge_weight, terminal_sets[i]). The sets run
// in parallel (util::parallel_threads() workers) over one shared CSR copy
// of g and its slot-aligned weights; the result is bit-identical at any
// thread count. One work unit is charged per set with two or more
// distinct terminals. Memory: O(n + m) shared, plus O(n) per set in
// flight. Failure: the status of the first failing set in index order,
// with the codes of the single-set call (kInvalidInput for a malformed set
// or a weight vector of the wrong size, kInfeasible for a set whose
// terminals are not mutually reachable); a budget that has expired by the
// end of the batch fails every set with the budget's own reason.
util::Result<std::vector<SteinerTree>> try_steiner_mst_approx_sets(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    const std::vector<std::vector<graph::NodeId>>& terminal_sets,
    const util::RunBudget& budget = {});

// Repeatedly removes edges hanging off non-terminal leaves until every
// leaf of the forest is a terminal; returns the surviving edges sorted
// ascending. The last step of the approximation. Runs in
// O(V + |tree_edges|) via a degree-decrement worklist, so long dangling
// paths are pruned in linear time. Exposed for tests.
std::vector<graph::EdgeId> prune_non_terminal_leaves(
    const graph::Graph& g, std::vector<graph::EdgeId> tree_edges,
    const std::vector<char>& is_terminal);

// Exact minimum Steiner tree cost via the Dreyfus–Wagner dynamic program.
// Complexity O(3^t · n + 2^t · n²); keep |terminals| small (≤ ~12).
double steiner_exact_dreyfus_wagner(const graph::Graph& g,
                                    const std::vector<double>& edge_weight,
                                    std::vector<graph::NodeId> terminals);

}  // namespace faircache::steiner
