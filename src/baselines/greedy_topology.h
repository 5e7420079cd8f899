#pragma once

// The two comparison schemes of the paper's evaluation (§V-A):
//
//  * "Hopc" — Nuggehalli et al. [13]: cache placement minimizing hop-count
//    based access delay plus dissemination, λ = 1.
//  * "Cont" — Sung et al. [4]: the same structure but with the contention
//    cost model (path contention for access, contention edge costs for the
//    dissemination tree).
//
// Both select ONE node set from the topology alone — no fairness state, no
// knowledge of already-cached data — so every chunk lands on the same
// nodes, which is precisely the unfairness the paper criticizes. The set is
// found by the natural greedy facility-location heuristic: repeatedly open
// the node with the largest decrease in
//      Σ_j d(nearest cache or producer, j) + λ · SteinerTree(caches ∪ {p})
// until no node improves the total.
//
// Multi-item extension (paper §V-B): when there are more distinct chunks
// than one set can hold, fill the chosen set to capacity, then recurse on
// the subgraph of untouched nodes (largest producer-containing component),
// until every chunk is placed or no progress is possible.

#include "core/problem.h"
#include "metrics/contention.h"

namespace faircache::baselines {

enum class BaselineMetric {
  kHopCount,   // Nuggehalli et al. — "Hopc"
  kContention, // Sung et al. — "Cont"
};

// One greedy selection round on an arbitrary graph: returns the chosen
// cache set (sorted, never containing the producer). `tree_weight`
// multiplies the dissemination-tree term; run() passes the load the chosen
// set will carry — each selected node caches up to its full capacity, so
// every tree edge serves 1 + capacity chunk transmissions' worth of
// contention (the 1 + S(k) factor of Eq. 2 at the final state). Exposed
// for tests.
std::vector<graph::NodeId> select_cache_set(const graph::Graph& g,
                                            graph::NodeId producer,
                                            BaselineMetric metric,
                                            double tree_weight);

class GreedyTopologyCaching : public core::CachingAlgorithm {
 public:
  explicit GreedyTopologyCaching(
      BaselineMetric metric = BaselineMetric::kContention)
      : metric_(metric) {}

  std::string name() const override {
    return metric_ == BaselineMetric::kHopCount ? "Hopc" : "Cont";
  }

  core::FairCachingResult run(const core::FairCachingProblem& problem) override;

 private:
  BaselineMetric metric_;
};

}  // namespace faircache::baselines
