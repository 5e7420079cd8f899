#pragma once

// Public problem/result types shared by every caching algorithm in the
// library (the paper's approximation algorithm, the distributed algorithm,
// the baselines and the brute-force solver all consume and produce these).

#include <string>
#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "metrics/contention.h"
#include "metrics/evaluator.h"

namespace faircache::core {

// One instance of the fair-caching problem (paper §III-A): a connected
// network, a producer holding `num_chunks` equal-size chunks, per-node
// cache capacities, and the requirement that every node wants every chunk.
struct FairCachingProblem {
  const graph::Graph* network = nullptr;
  graph::NodeId producer = graph::kInvalidNode;
  int num_chunks = 0;
  // Either a uniform capacity...
  int uniform_capacity = 5;
  // ...or explicit per-node capacities (wins when non-empty).
  std::vector<int> capacities;

  metrics::CacheState make_initial_state() const {
    FAIRCACHE_CHECK(network != nullptr, "problem needs a network");
    if (!capacities.empty()) {
      FAIRCACHE_CHECK(static_cast<int>(capacities.size()) ==
                          network->num_nodes(),
                      "capacity vector size mismatch");
      return metrics::CacheState(capacities, producer);
    }
    return metrics::CacheState(network->num_nodes(), uniform_capacity,
                               producer);
  }
};

// Where one chunk ended up, plus the per-chunk solver diagnostics.
struct ChunkPlacement {
  metrics::ChunkId chunk = 0;
  std::vector<graph::NodeId> cache_nodes;  // sorted
  double solver_objective = 0.0;  // the algorithm's internal objective
  int solver_rounds = 0;          // dual-growth rounds (0 if n/a)
  // assignment[j] = node that j fetches this chunk from according to the
  // algorithm's own protocol (kInvalidNode = unassigned). Empty when the
  // algorithm does not track per-node sources; the evaluator's
  // cheapest-copy assignment is then the only notion of "source".
  std::vector<graph::NodeId> assignment;
};

// Output of a caching algorithm run.
struct FairCachingResult {
  std::string algorithm;
  metrics::CacheState state;  // final storage state
  std::vector<ChunkPlacement> placements;
  double runtime_seconds = 0.0;
  // Liveness at the end of the run when the algorithm executed under node
  // churn (sim::FaultPlan crashes). Empty = every node survived.
  std::vector<char> alive;

  bool node_alive(graph::NodeId v) const {
    return alive.empty() || alive[static_cast<std::size_t>(v)] != 0;
  }

  // Degradation metric: the fraction of (surviving node, chunk) pairs for
  // which the protocol assigned a data source. A fault-free run — and any
  // faulty run after the self-healing repair passes — reports 1.0.
  // Algorithms that don't record assignments report full coverage.
  double coverage() const {
    const graph::NodeId producer = state.producer();
    long pairs = 0;
    long covered = 0;
    for (const ChunkPlacement& placement : placements) {
      if (placement.assignment.empty()) continue;
      for (std::size_t j = 0; j < placement.assignment.size(); ++j) {
        const auto v = static_cast<graph::NodeId>(j);
        if (v == producer || !node_alive(v)) continue;
        ++pairs;
        if (placement.assignment[j] != graph::kInvalidNode) ++covered;
      }
    }
    return pairs == 0 ? 1.0
                      : static_cast<double>(covered) /
                            static_cast<double>(pairs);
  }

  // Scores the final placement with the shared evaluator on hop-shortest
  // paths. Casualties are excluded both as consumers and as sources.
  metrics::PlacementEvaluation evaluate(
      const FairCachingProblem& problem) const {
    metrics::EvaluatorOptions options;
    options.num_chunks = problem.num_chunks;
    options.alive = alive.empty() ? nullptr : &alive;
    return metrics::evaluate_placement(*problem.network, state, options);
  }
};

// Common interface so harnesses can sweep algorithms uniformly.
class CachingAlgorithm {
 public:
  virtual ~CachingAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual FairCachingResult run(const FairCachingProblem& problem) = 0;
};

}  // namespace faircache::core
