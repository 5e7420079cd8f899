#include "exact/local_search.h"

#include <algorithm>

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "graph/shortest_paths.h"
#include "steiner/steiner.h"
#include "util/stopwatch.h"

namespace faircache::exact {

using graph::NodeId;

namespace {

// Passes over the move neighbourhood per chunk (each pass applies every
// improving move found; terminates early at a local optimum).
constexpr int kMaxPasses = 8;

// Per-chunk objective of a facility set under the ConFL instance costs.
double set_objective(const confl::ConflInstance& instance,
                     const std::vector<NodeId>& open) {
  double tree = 0.0;
  if (!open.empty()) {
    std::vector<NodeId> terminals = open;
    terminals.push_back(instance.root);
    std::vector<double> scaled = instance.edge_cost;
    for (double& w : scaled) w *= instance.edge_scale;
    tree = steiner::try_steiner_mst_approx(*instance.network, scaled,
                                           terminals)
               .value()
               .cost;
  }
  return confl::evaluate_confl_objective(instance, open, tree);
}

std::vector<NodeId> improve_chunk(const confl::ConflInstance& instance,
                                  std::vector<NodeId> open) {
  const int n = instance.network->num_nodes();
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n; ++v) {
    if (v != instance.root &&
        instance.facility_cost[static_cast<std::size_t>(v)] !=
            graph::kInfCost) {
      candidates.push_back(v);
    }
  }

  double current = set_objective(instance, open);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;

    // Steepest-descent over the add/drop/swap neighbourhood.
    std::vector<NodeId> best_set;
    double best_cost = current;

    auto consider = [&](std::vector<NodeId> trial) {
      std::sort(trial.begin(), trial.end());
      const double cost = set_objective(instance, trial);
      if (cost < best_cost - 1e-9) {
        best_cost = cost;
        best_set = std::move(trial);
      }
    };

    for (std::size_t k = 0; k < open.size(); ++k) {  // drop
      std::vector<NodeId> trial = open;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(k));
      consider(std::move(trial));
    }
    for (NodeId w : candidates) {  // add
      if (std::binary_search(open.begin(), open.end(), w)) continue;
      std::vector<NodeId> trial = open;
      trial.push_back(w);
      consider(std::move(trial));
    }
    for (std::size_t k = 0; k < open.size(); ++k) {  // swap
      for (NodeId w : candidates) {
        if (std::binary_search(open.begin(), open.end(), w)) continue;
        std::vector<NodeId> trial = open;
        trial[k] = w;
        consider(std::move(trial));
      }
    }

    if (!best_set.empty() || best_cost < current - 1e-9) {
      open = std::move(best_set);
      current = best_cost;
      improved = true;
    }
    if (!improved) break;
  }
  return open;
}

}  // namespace

core::FairCachingResult LocalSearchCaching::run(
    const core::FairCachingProblem& problem) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  util::Stopwatch clock;

  core::FairCachingResult result;
  result.algorithm = name();
  result.state = problem.make_initial_state();

  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    const confl::ConflInstance instance =
        core::try_build_chunk_instance(problem, result.state, {}, chunk)
            .value();
    // Seed with the primal–dual solution, then hill-climb.
    const confl::ConflSolution seed = confl::try_solve_confl(instance).value();
    const std::vector<NodeId> open =
        improve_chunk(instance, seed.open_facilities);

    core::ChunkPlacement placement;
    placement.chunk = chunk;
    placement.solver_objective = set_objective(instance, open);
    for (NodeId v : open) {
      if (result.state.can_cache(v, chunk)) {
        result.state.add(v, chunk);
        placement.cache_nodes.push_back(v);
      }
    }
    std::sort(placement.cache_nodes.begin(), placement.cache_nodes.end());
    result.placements.push_back(std::move(placement));
  }

  result.runtime_seconds = clock.elapsed_seconds();
  return result;
}

}  // namespace faircache::exact
