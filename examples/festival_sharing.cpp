// Festival sharing — the paper's motivating scenario (§I): smartphones at
// a large outdoor event share photo/video chunks peer-to-peer. One phone
// near the stage produces clips; everyone wants them. We compare the fair
// algorithms against the two prior wireless-caching schemes on a random
// geometric topology and translate contention costs into estimated 802.11
// latency with the DCF model.
//
// Build & run:  ./build/examples/festival_sharing [num_phones] [seed]

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/greedy_topology.h"
#include "core/approx.h"
#include "graph/generators.h"
#include "metrics/fairness_stats.h"
#include "metrics/latency_model.h"
#include "sim/distributed.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace faircache;

  const int phones = argc > 1 ? std::atoi(argv[1]) : 80;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 2017;
  util::Rng rng(seed);

  // Phones scattered over the festival ground; radio range stitches them
  // into a connected mesh.
  graph::RandomGeometricConfig topo;
  topo.num_nodes = phones;
  topo.area = 1.0;
  topo.radius = 1.4 / std::sqrt(static_cast<double>(phones));
  const graph::GeometricNetwork net = graph::make_random_geometric(topo, rng);

  std::cout << "Festival mesh: " << phones << " phones, "
            << net.graph.num_edges() << " radio links\n\n";

  core::FairCachingProblem problem;
  problem.network = &net.graph;
  problem.producer = 0;  // the phone filming near the stage
  problem.num_chunks = 5;
  problem.uniform_capacity = 5;

  std::vector<std::unique_ptr<core::CachingAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<core::ApproxFairCaching>());
  algorithms.push_back(std::make_unique<sim::DistributedFairCaching>());
  algorithms.push_back(std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kHopCount));
  algorithms.push_back(std::make_unique<baselines::GreedyTopologyCaching>(
      baselines::BaselineMetric::kContention));

  util::Table table({"algo", "contention", "est_latency_ms/chunk",
                     "phones_caching", "gini", "p75_fairness"});
  table.set_precision(3);

  const metrics::DcfParameters dcf;  // 802.11 DCF defaults
  for (const auto& algo : algorithms) {
    const auto result = algo->run(problem);
    const auto eval = result.evaluate(problem);
    const auto counts = result.state.stored_counts();
    int caching = 0;
    for (int c : counts) caching += c > 0 ? 1 : 0;

    // Average per-fetch latency estimate: total contention spread over all
    // (node, chunk) fetches, linearised via the DCF model (§III-C).
    const double fetches =
        static_cast<double>(phones - 1) * problem.num_chunks;
    const double latency_ms =
        metrics::contention_to_delay_us(eval.total() / fetches,
                                        /*hop_count=*/3, dcf) /
        1000.0;

    table.add_row() << result.algorithm << eval.total() << latency_ms
                    << caching << metrics::gini_coefficient(counts)
                    << metrics::percentile_fairness(counts, 75.0);
  }
  table.print(std::cout);

  std::cout << "\nFair algorithms spread the caching load across many "
               "phones (high p75, low Gini)\nso no single attendee's "
               "battery or storage is drained, at comparable latency.\n";
  return 0;
}
