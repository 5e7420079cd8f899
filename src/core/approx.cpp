#include "core/approx.h"

#include <algorithm>

#include "core/rehost.h"
#include "util/stopwatch.h"

namespace faircache::core {

namespace {

// Caches `chunk` on the solution's open facilities. A node with finite f_i
// always has room (full nodes are +inf), and the solver never opens the
// producer; can_cache guards anyway for robustness.
ChunkPlacement place_chunk(const confl::ConflSolution& solution,
                           metrics::ChunkId chunk, metrics::CacheState& state) {
  ChunkPlacement placement;
  placement.chunk = chunk;
  placement.solver_objective = solution.total();
  placement.solver_rounds = solution.rounds;
  for (graph::NodeId v : solution.open_facilities) {
    if (state.can_cache(v, chunk)) {
      state.add(v, chunk);
      placement.cache_nodes.push_back(v);
    }
  }
  return placement;
}

}  // namespace

util::Result<FairCachingResult> stateless_solve(
    const FairCachingProblem& problem, const ApproxConfig& config,
    metrics::PathPolicy policy) {
  if (util::Status status = validate_problem(problem); !status.ok()) {
    return status;
  }
  FairCachingResult result;
  result.state = problem.make_initial_state();
  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    util::Result<confl::ConflInstance> instance = try_build_chunk_instance(
        problem, result.state, config.instance, chunk, policy);
    if (!instance.ok()) return instance.status();
    util::Result<confl::ConflSolution> solution =
        confl::try_solve_confl(instance.value(), config.confl);
    if (!solution.ok()) return solution.status();
    result.placements.push_back(
        place_chunk(solution.value(), chunk, result.state));
  }
  return result;
}

FairCachingResult ApproxFairCaching::run(const FairCachingProblem& problem) {
  return solve(problem).value();
}

util::Result<FairCachingResult> ApproxFairCaching::solve(
    const FairCachingProblem& problem, const util::RunBudget& budget,
    SolveReport* report) {
  SolveReport local_report;
  SolveReport& rep = report != nullptr ? *report : local_report;
  rep = SolveReport{};

  if (util::Status status = validate_problem(problem); !status.ok()) {
    return status;
  }

  util::Stopwatch clock;
  FairCachingResult result;
  result.algorithm = name();
  result.state = problem.make_initial_state();
  rep.chunks_total = problem.num_chunks;

  ChunkInstanceEngine engine(problem, config_.instance);
  metrics::ChunkId chunk = 0;
  for (; chunk < problem.num_chunks; ++chunk) {
    if (budget.expired()) break;
    util::Stopwatch phase;
    // Lines 5–16: refresh f_i and c_ij from the current storage state —
    // a delta patch of the previous chunk's buffers after chunk 0.
    util::Result<confl::ConflInstance> instance =
        engine.build(result.state, chunk);
    rep.build_seconds += phase.elapsed_seconds();
    if (!instance.ok()) return instance.status();

    phase.reset();
    // Lines 17–47: primal–dual growth + Steiner connection.
    util::Result<confl::ConflSolution> solution =
        confl::try_solve_confl(instance.value(), config_.confl, budget);
    rep.solve_seconds += phase.elapsed_seconds();
    if (!solution.ok()) {
      // Budget expiry mid-solve degrades this chunk and the rest; any
      // other failure (invalid instance, non-convergence) is a real error.
      if (budget.expired()) break;
      return solution.status();
    }
    // The solver is done with the cost buffers: hand them back so the next
    // chunk's build can patch them in place.
    engine.reclaim(std::move(instance).value());
    result.placements.push_back(
        place_chunk(solution.value(), chunk, result.state));
  }
  rep.build_tree_seconds = engine.stats().tree_seconds;
  rep.build_delta_seconds = engine.stats().delta_seconds;
  rep.guard = engine.guard_report();

  if (chunk < problem.num_chunks) {
    // Anytime degradation: the budget ran out with chunks left. Keep every
    // ConFL placement made so far and fill the remainder with the greedy
    // re-host set (core/rehost.h) — the result stays feasible (can_cache
    // guards every pick; later chunks spread onto nodes the earlier ones
    // left free) and the report says exactly what happened.
    rep.stop_reason = budget.status("appx chunk loop");
    util::Stopwatch phase;
    // The fallback runs after expiry, so it runs unbudgeted. A sparse run
    // keeps its locality restriction: savings beyond the contention radius
    // are forfeited, as in the cost model the solver itself ran under.
    const graph::CsrAdjacency adj = graph::build_csr(*problem.network);
    const bool sparse =
        config_.instance.contention_mode == ContentionMode::kSparse;
    const int radius = sparse ? config_.instance.contention_radius : 0;
    for (; chunk < problem.num_chunks; ++chunk) {
      ChunkPlacement placement;
      placement.chunk = chunk;
      placement.cache_nodes =
          greedy_rehost(adj, result.state, chunk, nullptr, radius,
                        problem.network->num_nodes())
              .chosen;
      std::sort(placement.cache_nodes.begin(), placement.cache_nodes.end());
      for (graph::NodeId v : placement.cache_nodes) result.state.add(v, chunk);
      rep.degraded_chunks.push_back(chunk);
      result.placements.push_back(std::move(placement));
    }
    rep.fallback_seconds = phase.elapsed_seconds();
  }

  result.runtime_seconds = clock.elapsed_seconds();
  rep.total_seconds = result.runtime_seconds;
  return result;
}

}  // namespace faircache::core
