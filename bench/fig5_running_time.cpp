// Fig. 5 — running time to place ONE data chunk in grid networks.
// Paper claim: the approximation algorithm is faster than both baselines
// (21.6% and 85.1% average reduction); ours is markedly faster because the
// greedy baselines re-evaluate a Steiner tree per candidate node.

#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace faircache;

namespace {

void BM_Appx(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const auto problem = bench::grid_problem(g, 9, /*chunks=*/1, 5);
  for (auto _ : state) {
    core::ApproxFairCaching appx;
    benchmark::DoNotOptimize(appx.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

void BM_Dist(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const auto problem = bench::grid_problem(g, 9, /*chunks=*/1, 5);
  for (auto _ : state) {
    sim::DistributedFairCaching dist;
    benchmark::DoNotOptimize(dist.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

void BM_Hopc(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const auto problem = bench::grid_problem(g, 9, /*chunks=*/1, 5);
  for (auto _ : state) {
    baselines::GreedyTopologyCaching hopc(
        baselines::BaselineMetric::kHopCount);
    benchmark::DoNotOptimize(hopc.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

void BM_Cont(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const graph::Graph g = graph::make_grid(side, side);
  const auto problem = bench::grid_problem(g, 9, /*chunks=*/1, 5);
  for (auto _ : state) {
    baselines::GreedyTopologyCaching cont(
        baselines::BaselineMetric::kContention);
    benchmark::DoNotOptimize(cont.run(problem));
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}

}  // namespace

BENCHMARK(BM_Appx)->DenseRange(6, 14, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dist)->DenseRange(6, 14, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hopc)->DenseRange(6, 14, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cont)->DenseRange(6, 14, 2)->Unit(benchmark::kMillisecond);
