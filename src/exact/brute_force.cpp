#include "exact/brute_force.h"

#include "core/instance_builder.h"
#include "exact/confl_milp.h"
#include "util/stopwatch.h"

namespace faircache::exact {

core::FairCachingResult BruteForceCaching::run(
    const core::FairCachingProblem& problem) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");

  util::Stopwatch clock;
  core::FairCachingResult result;
  result.algorithm = name();
  result.state = problem.make_initial_state();
  all_proven_optimal_ = true;

  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    const confl::ConflInstance instance =
        core::try_build_chunk_instance(problem, result.state, {}, chunk)
            .value();
    const ExactConflSolution solution = solve_confl_exact(instance, mip_);
    all_proven_optimal_ = all_proven_optimal_ && solution.proven_optimal;

    core::ChunkPlacement placement;
    placement.chunk = chunk;
    placement.solver_objective = solution.objective;
    for (graph::NodeId v : solution.open_facilities) {
      if (result.state.can_cache(v, chunk)) {
        result.state.add(v, chunk);
        placement.cache_nodes.push_back(v);
      }
    }
    result.placements.push_back(std::move(placement));
  }

  result.runtime_seconds = clock.elapsed_seconds();
  return result;
}

}  // namespace faircache::exact
