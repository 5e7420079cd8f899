// Golden fingerprints of the modules whose tunables are fixed constants:
// the baselines (Hopc/Cont, the adaptive gradient), the distributed
// protocol with and without faults, random-waypoint mobility and the churn
// plan it yields, the exact ConFL MILP, local search, the access-phase
// traffic simulation, online replacement and the DOT writer. Each row
// hashes everything deterministic about one run, so a change that claims
// to keep outputs bit-identical must keep every golden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/adaptive_gradient.h"
#include "baselines/greedy_topology.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "core/online.h"
#include "exact/confl_milp.h"
#include "exact/local_search.h"
#include "graph/dot.h"
#include "graph/generators.h"
#include "sim/churn.h"
#include "sim/distributed.h"
#include "sim/mobility.h"
#include "sim/serving.h"
#include "sim/traffic.h"
#include "testutil.h"
#include "util/hash.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;
using testutil::make_problem;
using testutil::placement_hash;

template <typename T>
void hash_vector(util::Fnv1a& h, const std::vector<T>& v) {
  h.value(v.size());
  h.bytes(v.data(), v.size() * sizeof(T));
}

// A connected Erdős–Rényi draw (the seed is fixed and checked).
Graph connected_er() {
  util::Rng rng(17);
  Graph g = graph::make_erdos_renyi(30, 0.15, rng);
  EXPECT_TRUE(g.is_connected());
  return g;
}

std::uint64_t greedy_placements(baselines::BaselineMetric metric) {
  util::Fnv1a h;
  const Graph grid = graph::make_grid(6, 6);
  const Graph er = connected_er();
  for (const Graph* g : {&grid, &er}) {
    baselines::GreedyTopologyCaching algo(metric);
    h.value(placement_hash(algo.run(make_problem(*g, 7, 6, 2))));
  }
  return h.digest();
}

std::uint64_t greedy_select_cache_set() {
  util::Fnv1a h;
  const Graph g = connected_er();
  for (const auto metric : {baselines::BaselineMetric::kHopCount,
                            baselines::BaselineMetric::kContention}) {
    for (const double tree_weight : {1.0, 6.0}) {
      hash_vector(h, baselines::select_cache_set(g, 3, metric, tree_weight));
    }
  }
  return h.digest();
}

std::uint64_t distributed_run(bool faulty) {
  const Graph g = graph::make_grid(8, 8);
  const auto problem = make_problem(g, 27, 4, 3);
  sim::DistributedConfig config;
  if (faulty) {
    // Heavy loss on a grid this size keeps bidding going long enough for
    // some reliable sends to exhaust every attempt at the backoff cap.
    sim::FaultPlan plan;
    plan.seed = 42;
    plan.drop_rate = 0.4;
    plan.delay_rate = 0.1;
    plan.max_delay_rounds = 3;
    plan.crashes.push_back({8, 10, 70});
    config.faults = plan;
  }
  sim::DistributedFairCaching dist(config);
  const core::FairCachingResult result = dist.run(problem);
  util::Fnv1a h(placement_hash(result));
  hash_vector(h, result.alive);
  const sim::MessageStats& s = dist.message_stats();
  for (const long sent : s.sent) h.value(sent);
  for (const long c : {s.acks, s.retransmits, s.dropped, s.crash_dropped,
                       s.link_dropped, s.duplicated, s.delayed,
                       s.deduplicated, s.forced_freezes,
                       s.repaired_sources}) {
    h.value(c);
  }
  h.value(dist.total_rounds());
  if (faulty) {
    // The plan must reach the retransmission and backoff paths.
    EXPECT_GT(s.retransmits, 0);
    EXPECT_GT(s.crash_dropped, 0);
    EXPECT_GT(s.delayed, 0);
  }
  return h.digest();
}

std::uint64_t mobility_positions() {
  sim::MobilityConfig config;
  config.num_nodes = 20;
  util::Rng rng(5);
  sim::RandomWaypointModel model(config, rng);
  for (int step = 0; step < 20; ++step) model.step(1.0);
  util::Fnv1a h;
  hash_vector(h, model.x());
  hash_vector(h, model.y());
  return h.digest();
}

std::uint64_t mobility_churn_plan() {
  sim::MobilityConfig config;
  config.num_nodes = 25;
  config.radius = 0.3;
  util::Rng rng(9);
  sim::RandomWaypointModel model(config, rng);
  const sim::MobilityChurn churn = sim::churn_from_mobility(model, 8, 0.5);
  util::Fnv1a h;
  for (const graph::Edge& e : churn.universe.edges()) {
    h.value(e.u);
    h.value(e.v);
  }
  h.value(churn.plan.seed);
  for (const sim::ChurnEvent& e : churn.plan.events) {
    h.value(static_cast<int>(e.type));
    h.value(e.time);
    h.value(e.node);
    h.value(e.peer);
  }
  hash_vector(h, churn.plan.initially_absent);
  for (const auto& [u, v] : churn.plan.initially_down_links) {
    h.value(u);
    h.value(v);
  }
  return h.digest();
}

std::uint64_t exact_confl() {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 4, 2, 2);
  metrics::CacheState state = problem.make_initial_state();
  state.add(1, 0);
  const confl::ConflInstance instance =
      core::try_build_chunk_instance(problem, state, core::InstanceOptions{},
                                     1)
          .value();
  const exact::ExactConflSolution s = exact::solve_confl_exact(instance);
  EXPECT_TRUE(s.proven_optimal);
  EXPECT_GT(s.nodes_explored, 0);
  util::Fnv1a h;
  hash_vector(h, s.open_facilities);
  h.value(s.objective);
  h.value(s.nodes_explored);
  h.value(s.proven_optimal);
  return h.digest();
}

std::uint64_t local_search() {
  const Graph g = graph::make_grid(4, 4);
  exact::LocalSearchCaching algo;
  return placement_hash(algo.run(make_problem(g, 5, 4, 2)));
}

std::uint64_t access_latencies() {
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 12, 4, 2);
  core::ApproxFairCaching approx;
  const core::FairCachingResult placed = approx.run(problem);
  sim::TrafficOptions options;
  options.num_chunks = problem.num_chunks;
  const sim::TrafficResult r =
      sim::simulate_access_phase(g, placed.state, options);
  util::Fnv1a h;
  for (const sim::FetchRecord& f : r.fetches) {
    h.value(f.requester);
    h.value(f.chunk);
    h.value(f.source);
    h.value(f.start_us);
    h.value(f.finish_us);
  }
  h.value(r.mean_latency_us);
  h.value(r.p95_latency_us);
  h.value(r.max_latency_us);
  h.value(r.makespan_us);
  return h.digest();
}

std::uint64_t adaptive_gradient_serving() {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig config;
  config.requests = 6000;
  config.samples = 4;
  config.adapt_every = 500;
  config.drift_every = 2000;
  sim::ServingEngine engine(problem, config);
  baselines::AdaptiveGradientCaching policy(problem);
  return sim::serving_result_hash(engine.run(&policy).value());
}

std::uint64_t online_evict_oldest() {
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 5, 0, 1);
  core::OnlineConfig config;
  config.replacement = core::ReplacementPolicy::kEvictOldest;
  config.approx.confl.span_threshold = 2;
  core::OnlineFairCaching online(problem, config);
  util::Fnv1a h;
  for (metrics::ChunkId chunk = 0; chunk < 14; ++chunk) {
    const core::OnlineStepResult step =
        online.try_insert_chunk(chunk).value();
    hash_vector(h, step.cache_nodes);
    hash_vector(h, step.evicted_from);
    if (chunk % 4 == 3) online.retire_chunk(chunk - 2);
  }
  for (NodeId v = 0; v < online.state().num_nodes(); ++v) {
    hash_vector(h, online.state().chunks_on(v));
  }
  EXPECT_GT(online.total_evictions(), 0);
  h.value(online.total_evictions());
  return h.digest();
}

std::uint64_t dot_text() {
  const Graph g = graph::make_grid(2, 3);
  const std::vector<double> x{0.0, 0.5, 1.0, 0.0, 0.5, 1.0};
  const std::vector<double> y{0.0, 0.0, 0.0, 0.25, 0.25, 0.25};
  graph::DotOptions options;
  options.x = &x;
  options.y = &y;
  options.labels = {"p", "", "b:1", "c:2"};
  options.highlight = {2, 3};
  options.producer = 0;
  const std::string dot = graph::to_dot(g, options);
  return util::Fnv1a().bytes(dot.data(), dot.size()).digest();
}

struct GoldenRow {
  const char* name;
  std::uint64_t (*run)();
  std::uint64_t golden;
};

TEST(ConfigGoldenTest, EveryModuleMatchesItsPinnedFingerprint) {
  const GoldenRow rows[] = {
      {"hopc placements",
       [] { return greedy_placements(baselines::BaselineMetric::kHopCount); },
       0x59819c68c7c64a42ULL},
      {"cont placements",
       [] {
         return greedy_placements(baselines::BaselineMetric::kContention);
       },
       0x40d1c8096084aaeeULL},
      {"select_cache_set at tree weights 1 and 6", greedy_select_cache_set,
       0x6ac18034b0a4b02aULL},
      {"dist fault-free", [] { return distributed_run(false); },
       0xf925b6525ba116e8ULL},
      {"dist drops, delays and a crash window",
       [] { return distributed_run(true); }, 0xedb7e3413bd7149bULL},
      {"random-waypoint positions", mobility_positions, 0x6e7a0f523b2d6036ULL},
      {"churn_from_mobility plan", mobility_churn_plan, 0x8e965b0e1b703ac6ULL},
      {"solve_confl_exact", exact_confl, 0x4a68fb563e134a00ULL},
      {"local search placements", local_search, 0x371f893428ce84ffULL},
      {"access-phase latencies", access_latencies, 0x3010f77172cc04cdULL},
      {"adaptive-gradient serving", adaptive_gradient_serving,
       0x96d31db792c77268ULL},
      {"online evict-oldest stream", online_evict_oldest,
       0xded78bc6e58fa7a6ULL},
      {"to_dot text", dot_text, 0xfa0b67bd83ddbb1bULL},
  };
  for (const GoldenRow& row : rows) {
    SCOPED_TRACE(row.name);
    const std::uint64_t hash = row.run();
    EXPECT_EQ(hash, row.golden) << std::hex << "0x" << hash;
  }
}

}  // namespace
}  // namespace faircache
