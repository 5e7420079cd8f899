// Ablation — sparse contention engine (docs/PERF.md, "Contention
// updater"). Two layers:
//
//  1. Scale probes: one 100k-node ER instance (Q = 5 chunks) solved end
//     to end under kSparse at radius 2 and 3 — a size where the dense n²
//     matrix alone would need 80 GB. Reports wall time, the build/solve
//     split and peak RSS; the acceptance targets are single-digit seconds
//     and < 2 GB peak RSS. These run first because peak RSS is a
//     process-wide high-water mark and the sweep's dense references would
//     otherwise dominate it.
//
//  2. Quality sweep on 1600–10000-node connected ER networks (mean degree
//     ≈ 6): the dense kIncremental engine vs kSparse at increasing
//     contention radii, including the documented operating point radius =
//     ⌈3 × mean hop distance⌉. Reports the evaluator's total placement
//     cost and the regression vs dense — the headline claim is ≤ 5% at
//     the operating point (on these fixtures the placements coincide
//     exactly).
//
// Self-contained: `./bench/abl_sparse` prints every series to stdout
// (bench/run_benches.sh captures it as BENCH_abl_sparse.txt).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/approx.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace faircache;

namespace {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB → MB on Linux
}

// Connected ER G(n, 6/n): sampled sparse graph with stray components
// stitched into one (a representative of every non-zero component is
// linked to component 0's representative).
graph::Graph make_connected_er(int n, util::Rng& rng) {
  graph::Graph g = graph::make_erdos_renyi(n, 6.0 / n, rng);
  const std::vector<int> labels = g.component_labels();
  int num_components = 0;
  for (int label : labels) num_components = std::max(num_components, label + 1);
  if (num_components > 1) {
    std::vector<graph::NodeId> rep(static_cast<std::size_t>(num_components),
                                   graph::kInvalidNode);
    for (graph::NodeId v = 0; v < n; ++v) {
      auto& r = rep[static_cast<std::size_t>(labels[v])];
      if (r == graph::kInvalidNode) r = v;
    }
    for (int c = 1; c < num_components; ++c) {
      g.add_edge(rep[0], rep[static_cast<std::size_t>(c)]);
    }
  }
  return g;
}

// Mean hop distance estimated from BFS sweeps out of a few evenly spaced
// sources (all pairs would defeat the point of the sparse engine).
double mean_hop_estimate(const graph::Graph& g, int samples = 16) {
  const int n = g.num_nodes();
  std::vector<int> hops(static_cast<std::size_t>(n));
  std::vector<graph::NodeId> queue;
  const int stride = std::max(1, n / samples);
  long long total = 0;
  long long pairs = 0;
  for (graph::NodeId src = 0; src < n; src += stride) {
    graph::bfs_hops(g, src, hops.data(), queue);
    for (int h : hops) {
      if (h == graph::kUnreachable) continue;
      total += h;
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(pairs);
}

core::FairCachingProblem make_problem(const graph::Graph& g, int chunks) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = chunks;
  problem.uniform_capacity = 5;
  return problem;
}

struct RunOutcome {
  double eval_total = 0.0;
  double wall_seconds = 0.0;
  core::SolveReport report;
};

RunOutcome run_mode(const core::FairCachingProblem& problem,
                    core::ContentionMode mode, int radius, bool evaluate) {
  core::ApproxConfig config;
  config.instance.contention_mode = mode;
  config.instance.contention_radius = radius;
  core::ApproxFairCaching algorithm(config);
  RunOutcome outcome;
  util::Stopwatch timer;
  auto result = algorithm.solve(problem, util::RunBudget::unlimited(),
                                &outcome.report);
  outcome.wall_seconds = timer.elapsed_seconds();
  FAIRCACHE_CHECK(result.ok(), "abl_sparse solve failed");
  if (evaluate) {
    outcome.eval_total = result.value().evaluate(problem).total();
  }
  return outcome;
}

void quality_sweep() {
  std::printf("== sparse-vs-dense quality sweep (connected ER, degree 6, "
              "Q=5) ==\n");
  std::printf("%-6s %-14s %-7s %13s %13s %9s\n", "n", "engine", "radius",
              "eval_total", "seconds", "vs_dense");
  for (const int n : {1600, 3000, 10000}) {
    util::Rng rng(2024 + n);
    const graph::Graph g = make_connected_er(n, rng);
    const core::FairCachingProblem problem = make_problem(g, /*chunks=*/5);
    const double mean_hop = mean_hop_estimate(g);
    const int operating_radius = static_cast<int>(std::ceil(3.0 * mean_hop));

    const RunOutcome dense =
        run_mode(problem, core::ContentionMode::kIncremental, 0, true);
    std::printf("%-6d %-14s %-7s %13.3f %13.3f %9s\n", n, "kIncremental",
                "-", dense.eval_total, dense.wall_seconds, "-");

    std::vector<int> radii = {2, 3, operating_radius};
    for (const int radius : radii) {
      const RunOutcome sparse =
          run_mode(problem, core::ContentionMode::kSparse, radius, true);
      const double regression =
          dense.eval_total == 0.0
              ? 0.0
              : (sparse.eval_total - dense.eval_total) / dense.eval_total;
      std::printf("%-6d %-14s %-7d %13.3f %13.3f %8.2f%%%s\n", n, "kSparse",
                  radius, sparse.eval_total, sparse.wall_seconds,
                  100.0 * regression,
                  radius == operating_radius ? "  <- 3x mean hop" : "");
      if (radius == operating_radius) {
        FAIRCACHE_CHECK(regression <= 0.05,
                        "sparse regression above 5% at the operating radius");
      }
    }
    std::printf("   (mean hop distance %.2f, operating radius %d)\n\n",
                mean_hop, operating_radius);
  }
}

void scale_probe(int radius) {
  const int n = 100000;
  std::printf("== 100k-node scale probe (kSparse, radius %d, Q=5) ==\n",
              radius);
  util::Rng rng(7001);
  util::Stopwatch build_timer;
  const graph::Graph g = make_connected_er(n, rng);
  std::printf("graph: n=%d m=%d (built in %.2fs)\n", g.num_nodes(),
              g.num_edges(), build_timer.elapsed_seconds());

  const core::FairCachingProblem problem = make_problem(g, /*chunks=*/5);
  const RunOutcome outcome =
      run_mode(problem, core::ContentionMode::kSparse, radius, false);
  const double rss = peak_rss_mb();
  std::printf("wall_seconds      %10.3f\n", outcome.wall_seconds);
  std::printf("  build_seconds   %10.3f (trees %.3f, deltas %.3f)\n",
              outcome.report.build_seconds, outcome.report.build_tree_seconds,
              outcome.report.build_delta_seconds);
  std::printf("  solve_seconds   %10.3f\n", outcome.report.solve_seconds);
  std::printf("peak_rss_mb       %10.1f\n", rss);
  std::printf("chunks_solved     %10d / %d\n", outcome.report.chunks_solved(),
              outcome.report.chunks_total);
  FAIRCACHE_CHECK(outcome.report.chunks_solved() ==
                      outcome.report.chunks_total,
                  "100k probe degraded to the greedy fallback");
  FAIRCACHE_CHECK(rss < 2048.0, "100k probe exceeded the 2 GB RSS budget");
  std::printf("\n");
}

}  // namespace

int main() {
  // Line-buffer stdout so every completed series survives a failed check.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // Scale probes run first: peak RSS is a process-wide high-water mark, and
  // the dense n=10000 reference in the quality sweep alone would push it
  // past the probe's 2 GB budget.
  scale_probe(/*radius=*/2);
  scale_probe(/*radius=*/3);
  quality_sweep();
  std::printf("abl_sparse: OK\n");
  return 0;
}
