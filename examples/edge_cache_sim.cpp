// edge_cache_sim — a small CLI over the whole library: pick a topology, an
// algorithm and workload parameters, get placement + metrics, optionally a
// Graphviz DOT rendering of who caches what.
//
// Usage:
//   edge_cache_sim [--topology grid|random] [--rows R] [--cols C]
//                  [--nodes N] [--radius RAD] [--seed S]
//                  [--algo appx|dist|hopc|cont|local] [--chunks Q]
//                  [--capacity CAP] [--producer P] [--dot FILE]
//
// Examples:
//   edge_cache_sim --topology grid --rows 6 --cols 6 --algo appx
//   edge_cache_sim --topology random --nodes 80 --algo dist --dot mesh.dot

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/greedy_topology.h"
#include "core/approx.h"
#include "exact/local_search.h"
#include "graph/dot.h"
#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "sim/distributed.h"
#include "util/table.h"

using namespace faircache;

namespace {

struct Args {
  std::string topology = "grid";
  int rows = 6;
  int cols = 6;
  int nodes = 60;
  double radius = 0.2;
  std::uint64_t seed = 1;
  std::string algo = "appx";
  int chunks = 5;
  int capacity = 5;
  graph::NodeId producer = 9;
  std::string dot_file;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if (flag == "--topology" && (value = next())) {
      args.topology = value;
    } else if (flag == "--rows" && (value = next())) {
      args.rows = std::atoi(value);
    } else if (flag == "--cols" && (value = next())) {
      args.cols = std::atoi(value);
    } else if (flag == "--nodes" && (value = next())) {
      args.nodes = std::atoi(value);
    } else if (flag == "--radius" && (value = next())) {
      args.radius = std::atof(value);
    } else if (flag == "--seed" && (value = next())) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--algo" && (value = next())) {
      args.algo = value;
    } else if (flag == "--chunks" && (value = next())) {
      args.chunks = std::atoi(value);
    } else if (flag == "--capacity" && (value = next())) {
      args.capacity = std::atoi(value);
    } else if (flag == "--producer" && (value = next())) {
      args.producer = std::atoi(value);
    } else if (flag == "--dot" && (value = next())) {
      args.dot_file = value;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else if (value == nullptr) {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

std::unique_ptr<core::CachingAlgorithm> make_algorithm(
    const std::string& name) {
  if (name == "appx") return std::make_unique<core::ApproxFairCaching>();
  if (name == "dist") return std::make_unique<sim::DistributedFairCaching>();
  if (name == "local") return std::make_unique<exact::LocalSearchCaching>();
  if (name == "hopc") {
    return std::make_unique<baselines::GreedyTopologyCaching>(
        baselines::BaselineMetric::kHopCount);
  }
  if (name == "cont") {
    return std::make_unique<baselines::GreedyTopologyCaching>(
        baselines::BaselineMetric::kContention);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: edge_cache_sim [--topology grid|random] [--rows R] "
                 "[--cols C]\n                      [--nodes N] [--radius "
                 "RAD] [--seed S] [--algo appx|dist|hopc|cont|local]\n"
                 "                      [--chunks Q] [--capacity CAP] "
                 "[--producer P] [--dot FILE]\n";
    return 2;
  }

  graph::Graph network;
  std::vector<double> px;
  std::vector<double> py;
  if (args.topology == "grid") {
    network = graph::make_grid(args.rows, args.cols);
    for (graph::NodeId v = 0; v < network.num_nodes(); ++v) {
      const auto pos = graph::grid_position(args.cols, v);
      px.push_back(pos.col);
      py.push_back(args.rows - 1 - pos.row);
    }
  } else if (args.topology == "random") {
    util::Rng rng(args.seed);
    graph::RandomGeometricConfig config;
    config.num_nodes = args.nodes;
    config.radius = args.radius;
    auto net = graph::make_random_geometric(config, rng);
    network = std::move(net.graph);
    px = std::move(net.x);
    py = std::move(net.y);
  } else {
    std::cerr << "unknown topology: " << args.topology << "\n";
    return 2;
  }

  if (args.producer < 0 || args.producer >= network.num_nodes()) {
    args.producer = 0;
  }

  auto algo = make_algorithm(args.algo);
  if (!algo) {
    std::cerr << "unknown algorithm: " << args.algo << "\n";
    return 2;
  }

  core::FairCachingProblem problem;
  problem.network = &network;
  problem.producer = args.producer;
  problem.num_chunks = args.chunks;
  problem.uniform_capacity = args.capacity;

  const auto result = algo->run(problem);
  const auto eval = result.evaluate(problem);
  const auto counts = result.state.stored_counts();

  std::cout << args.algo << " on " << args.topology << " ("
            << network.num_nodes() << " nodes, " << network.num_edges()
            << " links), Q = " << args.chunks << ", capacity = "
            << args.capacity << "\n\n";
  for (const auto& placement : result.placements) {
    std::cout << "chunk " << placement.chunk << " -> ";
    if (placement.cache_nodes.empty()) {
      std::cout << "(producer only)";
    }
    for (graph::NodeId v : placement.cache_nodes) std::cout << v << ' ';
    std::cout << '\n';
  }

  util::Table table({"metric", "value"});
  table.set_precision(3);
  table.add_row() << "access contention" << eval.access_cost;
  table.add_row() << "dissemination contention" << eval.dissemination_cost;
  table.add_row() << "total contention" << eval.total();
  table.add_row() << "gini" << metrics::gini_coefficient(counts);
  table.add_row() << "p75 fairness"
                  << metrics::percentile_fairness(counts, 75.0);
  table.add_row() << "runtime (ms)" << result.runtime_seconds * 1e3;
  std::cout << '\n';
  table.print(std::cout);

  if (!args.dot_file.empty()) {
    graph::DotOptions dot;
    dot.x = &px;
    dot.y = &py;
    dot.producer = args.producer;
    std::vector<std::string> labels;
    for (graph::NodeId v = 0; v < network.num_nodes(); ++v) {
      labels.push_back(std::to_string(v) + ":" +
                       std::to_string(counts[static_cast<std::size_t>(v)]));
      if (counts[static_cast<std::size_t>(v)] > 0) {
        dot.highlight.push_back(v);
      }
    }
    dot.labels = std::move(labels);
    std::ofstream out(args.dot_file);
    graph::write_dot(out, network, dot);
    std::cout << "\nwrote " << args.dot_file
              << " (render with: neato -n -Tsvg " << args.dot_file << ")\n";
  }
  return 0;
}
