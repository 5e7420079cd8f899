#pragma once

// Shared helpers for the figure-reproduction binaries: default algorithm
// constructions and a uniform run-and-evaluate wrapper.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/greedy_topology.h"
#include "core/approx.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "sim/distributed.h"
#include "util/table.h"

namespace faircache::bench {

inline std::unique_ptr<core::CachingAlgorithm> make_appx() {
  return std::make_unique<core::ApproxFairCaching>();
}

inline std::unique_ptr<core::CachingAlgorithm> make_dist() {
  return std::make_unique<sim::DistributedFairCaching>();
}

inline std::unique_ptr<core::CachingAlgorithm> make_hopc() {
  return std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kHopCount);
}

inline std::unique_ptr<core::CachingAlgorithm> make_cont() {
  return std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kContention);
}

// Brute force with a budget suitable for interactive benches; reports the
// incumbent when it cannot close the gap in time.
inline std::unique_ptr<exact::BruteForceCaching> make_brtf(
    double time_limit_seconds = 30.0) {
  mip::MipOptions limits;
  limits.time_limit_seconds = time_limit_seconds;
  return std::make_unique<exact::BruteForceCaching>(limits);
}

// The four paper algorithms in presentation order.
inline std::vector<std::unique_ptr<core::CachingAlgorithm>>
paper_algorithms() {
  std::vector<std::unique_ptr<core::CachingAlgorithm>> algos;
  algos.push_back(make_appx());
  algos.push_back(make_dist());
  algos.push_back(make_hopc());
  algos.push_back(make_cont());
  return algos;
}

struct RunSummary {
  std::string algorithm;
  double access = 0.0;
  double dissemination = 0.0;
  double total = 0.0;
  double gini = 0.0;
  double p75 = 0.0;
  int nodes_used = 0;
  double runtime_seconds = 0.0;
  core::FairCachingResult result;
};

inline RunSummary run_and_evaluate(core::CachingAlgorithm& algo,
                                   const core::FairCachingProblem& problem) {
  RunSummary summary;
  summary.result = algo.run(problem);
  const auto eval = summary.result.evaluate(problem);
  summary.algorithm = summary.result.algorithm;
  summary.access = eval.access_cost;
  summary.dissemination = eval.dissemination_cost;
  summary.total = eval.total();
  const auto counts = summary.result.state.stored_counts();
  summary.gini = metrics::gini_coefficient(counts);
  summary.p75 = metrics::percentile_fairness(counts, 75.0);
  for (int c : counts) summary.nodes_used += c > 0 ? 1 : 0;
  summary.runtime_seconds = summary.result.runtime_seconds;
  return summary;
}

inline core::FairCachingProblem grid_problem(const graph::Graph& g,
                                             graph::NodeId producer,
                                             int chunks, int capacity) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = producer;
  problem.num_chunks = chunks;
  problem.uniform_capacity = capacity;
  return problem;
}

// The paper's random networks: n nodes in the unit square with a radius
// that keeps average degree roughly constant as n grows.
inline graph::GeometricNetwork random_network(int n, util::Rng& rng) {
  graph::RandomGeometricConfig config;
  config.num_nodes = n;
  config.radius = 1.3 / std::sqrt(static_cast<double>(n));
  return graph::make_random_geometric(config, rng);
}

}  // namespace faircache::bench
