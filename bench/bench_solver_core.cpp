// Solver-core microbenchmarks (google-benchmark): the hot stages of the
// approximation pipeline on the paper's grid topology, at n = 100, 400,
// 900 and 1600 nodes.
//
//   * ContentionBuild — dense c_ij matrix (n BFS accumulations)
//   * SolveConfl      — one primal–dual ConFL solve on a built instance
//   * BuildInstance*  — the full Q = 5 per-chunk instance-build sequence
//                       (replayed cache states) of the default engine
//   * ApproxRun*      — ApproxFairCaching end to end, Q = 5 chunks, under
//                       the default engines, unguarded, and auditing every
//                       build
//
// A development tool with no committed output: the timings of record are
// the repository benchmark's records in benchmark/baseline/ (docs/PERF.md,
// "Running the benchmarks").

#include <benchmark/benchmark.h>

#include <vector>

#include "confl/confl.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "metrics/contention.h"

namespace {

using namespace faircache;

core::FairCachingProblem grid_problem(const graph::Graph& g, int chunks) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = chunks;
  problem.uniform_capacity = 5;
  return problem;
}

void BM_ContentionBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const metrics::CacheState cache(g.num_nodes(), 5, /*producer=*/0);
  for (auto _ : state) {
    metrics::ContentionMatrix m(g, cache, metrics::PathPolicy::kHopShortest);
    benchmark::DoNotOptimize(m.matrix().data());
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

void BM_SolveConfl(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const core::FairCachingProblem problem = grid_problem(g, 1);
  const metrics::CacheState cache(g.num_nodes(), 5, /*producer=*/0);
  const confl::ConflInstance instance =
      core::try_build_chunk_instance(problem, cache, core::InstanceOptions{})
          .value();
  for (auto _ : state) {
    const confl::ConflSolution solution =
        confl::try_solve_confl(instance).value();
    benchmark::DoNotOptimize(solution.total());
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

// The build phase in isolation: replay the exact Q = 5 cache-state
// sequence a default run produces, timing only the per-chunk instance
// builds of the default engine (it is reconstructed every iteration, so
// its chunk-0 tree pinning is charged — what one full run pays).
void BM_BuildInstanceIncremental(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const core::FairCachingProblem problem = grid_problem(g, 5);

  // Replay material: the state before each chunk's build.
  std::vector<metrics::CacheState> states;
  {
    const core::FairCachingResult run =
        core::ApproxFairCaching().run(problem);
    metrics::CacheState s = problem.make_initial_state();
    for (const core::ChunkPlacement& placement : run.placements) {
      states.push_back(s);
      for (graph::NodeId v : placement.cache_nodes) {
        s.add(v, placement.chunk);
      }
    }
  }

  for (auto _ : state) {
    core::ChunkInstanceEngine engine(problem, core::InstanceOptions{});
    for (std::size_t chunk = 0; chunk < states.size(); ++chunk) {
      util::Result<confl::ConflInstance> instance = engine.build(
          states[chunk], static_cast<metrics::ChunkId>(chunk));
      benchmark::DoNotOptimize(instance.value().assign_cost.data());
      engine.reclaim(std::move(instance).value());
    }
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes, Q=5");
}

// End to end under the current defaults: kVoronoi Steiner engine +
// kIncremental contention updates.
void BM_ApproxRun(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const core::FairCachingProblem problem = grid_problem(g, 5);
  for (auto _ : state) {
    core::ApproxFairCaching appx;
    benchmark::DoNotOptimize(appx.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

// The pre-guard fast path: integrity guard off, so the updaters skip
// checksum maintenance entirely. BM_ApproxRun minus this = what the
// default guard costs end to end (docs/PERF.md, "Integrity guard").
void BM_ApproxRunUnguarded(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const core::FairCachingProblem problem = grid_problem(g, 5);
  core::ApproxConfig config;
  config.instance.guard.enabled = false;
  for (auto _ : state) {
    core::ApproxFairCaching appx(config);
    benchmark::DoNotOptimize(appx.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

// Worst-case guard pressure: audit every build with an uncapped budget.
// The gap to BM_ApproxRun is the price of the audits themselves (digest
// recompute + sampled-row cross-validation), not of maintenance.
void BM_ApproxRunAuditEveryBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const core::FairCachingProblem problem = grid_problem(g, 5);
  core::ApproxConfig config;
  config.instance.guard.cadence = 1;
  config.instance.guard.budget_share = 1.0;
  for (auto _ : state) {
    core::ApproxFairCaching appx(config);
    benchmark::DoNotOptimize(appx.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

BENCHMARK(BM_ContentionBuild)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SolveConfl)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildInstanceIncremental)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ApproxRun)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ApproxRunUnguarded)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ApproxRunAuditEveryBuild)->Arg(10)->Arg(20)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
