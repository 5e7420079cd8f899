#pragma once

// The greedy hop-count re-host move — the "Hopc" baseline's core step,
// re-derived here because core cannot link the baselines module. It places
// the anytime fallback's copies for chunks Algorithm 1 never reached
// (core/approx) and the churn repair's replacement replicas
// (core/repair).
//
// Starting from the chunk's existing copies (producer + holders), it
// repeatedly picks the candidate v with the largest net gain
//     Σ_u max(0, nearest(u) − d(v, u)) − nearest(v)
// — access-delay savings minus a λ = 1 dissemination penalty for shipping
// the chunk to v — until no candidate nets a strict improvement. The
// penalty stops the set degenerating to "cache everywhere" (the self term
// alone always pays for a free node). Smallest-id tie-breaks keep it
// deterministic at any thread count.
//
// Distances are BFS hops over alive nodes only; nearest(u) is the distance
// from u to its nearest copy, and a node that cannot reach a copy adds
// nothing. Each candidate's saving is summed over its BFS ball, cut at
// `radius` hops (the sparse engine's locality restriction) and at one hop
// short of the largest finite nearest(u) — no node deeper than that can
// save anything, so the cut is exact. Memory is O(n + m) per call plus
// O(n) per worker; no n×n matrix.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "util/deadline.h"

namespace faircache::core {

struct RehostResult {
  std::vector<graph::NodeId> chosen;  // in selection order
  std::uint64_t work_units = 0;       // units charged to the budget
  bool truncated = false;  // the budget expired before the pass finished
};

// Greedy re-host pass for `chunk` on the network `adj`.
//  * `alive`: liveness mask (null = every node alive). Dead nodes are never
//    routed through, counted or chosen.
//  * `radius`: hop radius of each candidate's ball (≤ 0 = unbounded).
//  * `max_copies`: stop after this many picks.
//  * A candidate must be alive, pass state.can_cache and reach a copy.
//  * Before every candidate sweep the pass charges n work units and checks
//    the budget; the sweep itself polls it, and a sweep the budget cut
//    short is discarded (a torn gain array never picks a node). Charges
//    happen at sequential points only, so a work-unit budget truncates at
//    the same pick at any thread count.
// `state` is not modified: the caller adds the chosen nodes.
RehostResult greedy_rehost(const graph::CsrAdjacency& adj,
                           const metrics::CacheState& state,
                           metrics::ChunkId chunk,
                           const std::vector<char>* alive, int radius,
                           int max_copies,
                           const util::RunBudget& budget = {});

}  // namespace faircache::core
