#pragma once

// Steiner-tree construction for the dissemination phase: the selected
// caching nodes of a chunk must form a connected tree rooted at the producer
// (constraint (6) of the ILP), and the dissemination cost is the sum of the
// chosen edges' contention costs.
//
// Implementations:
//  * `try_steiner_mst_approx` — a 2-approximation with two selectable engines
//    (`Engine` below): the classic Kou–Markowsky–Berman metric-closure MST
//    construction, and Mehlhorn's Voronoi-partition variant that reaches
//    the same ratio from a single multi-source Dijkstra sweep. The paper
//    cites the 1.55-ratio Robins–Zelikovsky algorithm; any constant-factor
//    tree keeps the ConFL analysis intact, and KMB/Mehlhorn are the
//    standard practical choices.
//  * `try_steiner_mst_approx_sets` — the KMB engine over many terminal sets
//    on one weighted graph, with short bounded shortest-path runs per set
//    (the evaluator's per-chunk dissemination trees).
//  * `steiner_exact_dreyfus_wagner` — exponential-in-|terminals| exact DP,
//    used as the optimality oracle in tests and by the tiny-instance exact
//    solver.

#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::steiner {

// Selects how the 2-approximate tree is built. Both engines finish with
// the same MST-of-union → prune pipeline and both carry the 2(1 − 1/|T|)
// approximation guarantee; they may return different (equally valid) trees
// on the same instance, so the engine choice is part of a solver's
// determinism contract.
enum class Engine {
  // Kou–Markowsky–Berman over the terminal metric closure: one
  // shortest-path run per terminal (computed in parallel, each stopped as
  // early as the closure MST allows — see try_steiner_mst_approx_sets),
  // then Prim over the |T|×|T| closure. O(|T| · m log n) in the worst
  // case. The historical default; golden outputs are pinned against it.
  // try_steiner_mst_approx_sets runs it on many sets at once.
  kClosureKmb,
  // Mehlhorn's Voronoi-partition construction: one multi-source Dijkstra
  // labels every node with its nearest terminal, Voronoi boundary edges
  // induce the terminal distance graph, and Kruskal over those boundary
  // candidates selects the closure MST. O(m log n) total — asymptotically
  // |T|× cheaper than kClosureKmb, the engine of choice for large solves.
  kVoronoi,
};

struct SteinerTree {
  std::vector<graph::EdgeId> edges;  // tree edges (sorted, unique)
  double cost = 0.0;                 // sum of edge weights

  // All nodes touched by the tree (sorted, unique).
  std::vector<graph::NodeId> nodes(const graph::Graph& g) const;
};

// 2-approximate Steiner tree connecting `terminals` (deduplicated; must be
// non-empty). A single terminal yields an empty tree. Under kClosureKmb the
// per-terminal shortest-path trees are computed in parallel (threads == 0
// means the util::parallel_threads() default); kVoronoi runs one serial
// multi-source sweep. Either engine's result is bit-identical at any
// thread count.
//
// Malformed input yields kInvalidInput, mutually unreachable terminals
// kInfeasible, and an expired util::RunBudget the budget's own reason
// (kCancelled / kDeadlineExceeded / kResourceExhausted). One work unit is
// charged per terminal under kClosureKmb (the budget is polled between
// shortest-path runs, workers draining, and once per closure-MST round);
// kVoronoi charges a single unit for its one multi-source sweep and is
// polled between pipeline phases. A run that completes under an unexpired
// budget is bit-identical to an unbudgeted one.
util::Result<SteinerTree> try_steiner_mst_approx(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<graph::NodeId> terminals, int threads = 0,
    const util::RunBudget& budget = {}, Engine engine = Engine::kClosureKmb);

// One kClosureKmb tree per terminal set, over one graph and one weight
// vector: trees[i] is bit-identical to
// try_steiner_mst_approx(g, edge_weight, terminal_sets[i]). Each set runs
// one shortest-path run per terminal but its last (in ascending id), in
// parallel (util::parallel_threads() workers); the result is bit-identical
// at any thread count. A run stops once the set's later terminals are
// settled. When every weight is a positive integer and the weights sum to
// less than 2^53 — contention edge costs always do — a run also never
// expands out of another terminal of its set and stops at the first pop
// beyond the bottleneck of the set's Mehlhorn terminal MST (one Voronoi
// sweep per set), so it settles the nodes near its terminal, not the
// graph. One work unit is charged per distinct terminal of a set with two
// or more terminals. Memory: per worker, O(n) search scratch; per run, the
// parent chains of the terminals it settled; per set, its |T|×|T| closure.
// Failure: the status of the first failing set in index order, with the
// codes of the single-set call (kInvalidInput for a malformed set or a
// weight vector of the wrong size, kInfeasible for a set whose terminals
// are not mutually reachable, the budget's own reason when it expires).
util::Result<std::vector<SteinerTree>> try_steiner_mst_approx_sets(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    const std::vector<std::vector<graph::NodeId>>& terminal_sets,
    const util::RunBudget& budget = {});

// Repeatedly removes edges hanging off non-terminal leaves until every
// leaf of the forest is a terminal; returns the surviving edges sorted
// ascending. Shared tail of both approximation engines. Runs in
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
