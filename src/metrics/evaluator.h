#pragma once

// Placement evaluation: given a final cache state, compute the quantities
// the paper reports — access-phase contention cost (every node fetches every
// chunk from its cheapest copy), dissemination-phase contention cost (a
// Steiner tree from the producer to all holders of each chunk), and their
// sum, the "total Contention Cost" of Figs. 2–4, 8, 9.

#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "metrics/contention.h"
#include "util/status.h"

namespace faircache::metrics {

struct ChunkEvaluation {
  ChunkId chunk = 0;
  double access_cost = 0.0;
  double dissemination_cost = 0.0;
  // assignment[j] = node that j fetches this chunk from (may be producer or
  // j itself).
  std::vector<graph::NodeId> assignment;

  double total() const { return access_cost + dissemination_cost; }
};

struct PlacementEvaluation {
  std::vector<ChunkEvaluation> per_chunk;
  double access_cost = 0.0;
  double dissemination_cost = 0.0;

  double total() const { return access_cost + dissemination_cost; }
};

struct EvaluatorOptions {
  // Path model used for c_ij (paper: hop-shortest).
  PathPolicy path_policy = PathPolicy::kHopShortest;
  // Chunks to evaluate: [0, num_chunks).
  int num_chunks = 0;
  // Optional demand matrix demand[chunk][node]: weights each (node, chunk)
  // fetch in the access cost. nullptr = the paper's uniform model. Needs a
  // row of n entries for each of the num_chunks chunks.
  const std::vector<std::vector<double>>* access_demand = nullptr;
  // Optional liveness mask (fault-injection runs): dead nodes neither
  // fetch chunks nor serve as sources or Steiner terminals. nullptr = all
  // nodes alive. Needs n entries.
  const std::vector<char>* alive = nullptr;
};

// Evaluates the placement recorded in `state` on graph `g`. Contention costs
// are computed from the *final* storage state, so every algorithm is scored
// under identical network conditions (§V-B's comparison methodology).
//
// Only the rows c_i· of copy sources are read, so no n×n matrix is built:
// one sweep over the distinct sources (alive holders of any chunk, plus the
// producer) builds each source's row once and folds it into every chunk it
// serves, and the dissemination trees of all chunks come from one
// steiner::try_steiner_mst_approx_sets batch, one Voronoi sweep per chunk.
// Memory is O(num_chunks · n) per worker for the access tables, plus
// O(n + m) for the batch's shared CSR and O(n) per sweep in flight.
// Sources and sweeps run in parallel; the result is bit-identical at any
// thread count.
// `alive` and every used `access_demand` row must have n entries.
PlacementEvaluation evaluate_placement(const graph::Graph& g,
                                       const CacheState& state,
                                       const EvaluatorOptions& options);

// Graceful-degradation summary of a faulty run against its fault-free twin
// (same problem, same algorithm, no FaultPlan). `coverage` is the protocol
// level metric (core::FairCachingResult::coverage()); the cost fields come
// from the two evaluations.
struct DegradationReport {
  double coverage = 1.0;             // (surviving node, chunk) pairs served
  double baseline_cost = 0.0;        // fault-free total contention cost
  double degraded_cost = 0.0;        // faulty-run total contention cost
  double residual_cost_ratio = 1.0;  // degraded / baseline (1.0 = no loss)
  double extra_cost = 0.0;           // degraded − baseline
  // Typed termination outcome of the protocol that produced the degraded
  // placement: OK for natural convergence, kResourceExhausted when the
  // distributed watchdog force-froze stragglers at the round bound (see
  // sim::DistributedFairCaching::protocol_outcome).
  util::Status protocol_outcome;
  long forced_freezes = 0;  // stragglers frozen by the round watchdog
};

// `protocol_outcome` and `forced_freezes` carry the protocol's typed
// termination outcome and watchdog counter; the defaults report an OK run.
DegradationReport make_degradation_report(double coverage,
                                          const PlacementEvaluation& degraded,
                                          const PlacementEvaluation& baseline,
                                          util::Status protocol_outcome = {},
                                          long forced_freezes = 0);

}  // namespace faircache::metrics
