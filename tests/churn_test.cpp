// Tests for the self-healing churn runtime (docs/CHURN.md): ChurnPlan
// validation and replay, the budgeted placement repair engine, the
// degrade-and-repair loop, and its agreement with the message-level fault
// channel. Pins the four tentpole invariants:
//   (a) the zero-churn path is bit-identical to the pre-churn outputs
//       (golden hash),
//   (b) every repaired placement — including budget- or cancel-truncated
//       partial repairs — passes core::validate_placement,
//   (c) reachable-fraction never decreases across a repair pass,
//   (d) a fixed-seed churn→repair timeline hashes identically at 1/2/8
//       threads.

#include "sim/churn.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/approx.h"
#include "core/repair.h"
#include "core/validate.h"
#include "graph/generators.h"
#include "sim/distributed.h"
#include "sim/state_faults.h"
#include "testutil.h"
#include "util/check.h"
#include "util/hash.h"

namespace faircache::sim {
namespace {

using graph::Graph;
using graph::NodeId;

using testutil::make_problem;

std::uint64_t placement_hash(const metrics::CacheState& state) {
  util::Fnv1a h;
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    h.value(v);
    for (metrics::ChunkId c : state.chunks_on(v)) h.value(c);
  }
  return h.digest();
}

// Every deterministic RepairReport counter plus the repaired placement's
// hash, as one line for the repair goldens.
std::string repair_summary(const core::RepairReport& r,
                           const metrics::CacheState& state) {
  char text[256];
  std::snprintf(text, sizeof(text),
                "stop=%d lost=%d restored=%d affected=%d local=%d "
                "resolved=%d unrepaired=%d stranded=%ld work=%llu "
                "placement=%016llx",
                static_cast<int>(r.stop_reason.code()), r.replicas_lost,
                r.replicas_restored, r.chunks_affected, r.chunks_local,
                r.chunks_resolved, r.chunks_unrepaired, r.unservable_pairs,
                static_cast<unsigned long long>(r.work_units),
                static_cast<unsigned long long>(placement_hash(state)));
  return std::string(text);
}

// --- (a) Zero-churn bit-identity. --------------------------------------

// The exact pre-churn-runtime output of the Appx solver on the 6×6 grid,
// hashed over placements (chunk id, cache nodes, solver objective) and the
// final cache state. If this moves, the churn PR changed the zero-churn
// path — which it must not.
TEST(ZeroChurnGoldenTest, AppxOutputBitIdenticalToPinnedHash) {
  const Graph g = graph::make_grid(6, 6);
  const core::FairCachingProblem problem = make_problem(g, 9, 5, 5);
  core::ApproxFairCaching appx;
  const core::FairCachingResult result = appx.run(problem);
  util::Fnv1a h;
  for (const auto& p : result.placements) {
    h.value(p.chunk);
    for (NodeId v : p.cache_nodes) h.value(v);
    h.value(p.solver_objective);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (metrics::ChunkId c : result.state.chunks_on(v)) h.value(c);
  }
  EXPECT_EQ(h.digest(), 0xc181c06e1755612dULL);
}

TEST(ZeroChurnGoldenTest, EmptyPlanRunLeavesPlacementUntouched) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 0, 3, 3);
  core::ApproxFairCaching appx;
  const core::FairCachingResult solved = appx.run(problem);

  const auto run = run_churn(problem, solved.state, ChurnPlan{});
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(placement_hash(run.value().state),
            placement_hash(solved.state));
  EXPECT_TRUE(run.value().reports.empty());
  ASSERT_EQ(run.value().timeline.samples().size(), 1u);
  const ChurnSample& initial = run.value().timeline.samples().front();
  EXPECT_EQ(initial.phase, ChurnPhase::kInitial);
  EXPECT_DOUBLE_EQ(initial.reachable_fraction, 1.0);
  EXPECT_TRUE(run.value().last_stop.ok());
}

// --- ChurnPlan validation. ----------------------------------------------

TEST(ChurnPlanValidateTest, AcceptsAWellFormedSchedule) {
  const Graph g = graph::make_ring(6);
  ChurnPlan plan;
  plan.initially_absent = {5};
  plan.events.push_back({ChurnEventType::kCrash, 1, 2});
  plan.events.push_back({ChurnEventType::kRecover, 3, 2});
  plan.events.push_back({ChurnEventType::kArrive, 2, 5});
  plan.events.push_back({ChurnEventType::kLinkDown, 2, 0, 1});
  plan.events.push_back({ChurnEventType::kLinkUp, 4, 0, 1});
  plan.events.push_back({ChurnEventType::kDepart, 5, 4});
  EXPECT_TRUE(plan.validate(g).ok());
}

TEST(ChurnPlanValidateTest, RejectsMalformedSchedules) {
  const Graph g = graph::make_ring(6);
  const auto reject = [&](const ChurnPlan& plan) {
    const util::Status status = plan.validate(g);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  };

  {
    ChurnPlan plan;  // negative time
    plan.events.push_back({ChurnEventType::kDepart, -1, 2});
    reject(plan);
  }
  {
    ChurnPlan plan;  // node out of range
    plan.events.push_back({ChurnEventType::kCrash, 0, 6});
    reject(plan);
  }
  {
    ChurnPlan plan;  // overlapping crash windows
    plan.events.push_back({ChurnEventType::kCrash, 1, 2});
    plan.events.push_back({ChurnEventType::kCrash, 2, 2});
    reject(plan);
  }
  {
    ChurnPlan plan;  // recovery of a running node
    plan.events.push_back({ChurnEventType::kRecover, 1, 2});
    reject(plan);
  }
  {
    ChurnPlan plan;  // event on a departed node
    plan.events.push_back({ChurnEventType::kDepart, 1, 2});
    plan.events.push_back({ChurnEventType::kCrash, 2, 2});
    reject(plan);
  }
  {
    ChurnPlan plan;  // arrival without initial absence
    plan.events.push_back({ChurnEventType::kArrive, 1, 2});
    reject(plan);
  }
  {
    ChurnPlan plan;  // link that is not a universe edge (ring: 0-3 absent)
    plan.events.push_back({ChurnEventType::kLinkDown, 1, 0, 3});
    reject(plan);
  }
  {
    ChurnPlan plan;  // double link-down
    plan.events.push_back({ChurnEventType::kLinkDown, 1, 0, 1});
    plan.events.push_back({ChurnEventType::kLinkDown, 2, 1, 0});
    reject(plan);
  }
  {
    ChurnPlan plan;  // link-up of a link that is up
    plan.events.push_back({ChurnEventType::kLinkUp, 1, 0, 1});
    reject(plan);
  }
  {
    ChurnPlan plan;  // duplicate initial absence
    plan.initially_absent = {2, 2};
    reject(plan);
  }
}

TEST(ChurnSimulatorTest, ConstructorRejectsInvalidPlans) {
  const Graph g = graph::make_ring(5);
  ChurnPlan plan;
  plan.events.push_back({ChurnEventType::kDepart, 0, 9});
  EXPECT_THROW(ChurnSimulator(g, plan), util::CheckError);
}

// --- ChurnSimulator replay. ---------------------------------------------

TEST(ChurnSimulatorTest, AppliesEventsAndIsolatesDeadNodes) {
  const Graph g = graph::make_path(4);  // 0-1-2-3
  ChurnPlan plan;
  plan.events.push_back({ChurnEventType::kCrash, 1, 1});
  plan.events.push_back({ChurnEventType::kRecover, 3, 1});
  plan.events.push_back({ChurnEventType::kDepart, 3, 2});
  ChurnSimulator sim(g, plan);

  EXPECT_EQ(sim.snapshot().num_edges(), 3);

  TopologyDelta delta = sim.advance();
  EXPECT_EQ(delta.time, 1);
  ASSERT_EQ(delta.crashed.size(), 1u);
  EXPECT_EQ(delta.crashed[0], 1);
  EXPECT_EQ(sim.alive()[1], 0);
  EXPECT_EQ(sim.present()[1], 1);  // crashed, not gone
  EXPECT_EQ(sim.snapshot().degree(1), 0);
  EXPECT_EQ(sim.snapshot().num_edges(), 1);  // only 2-3 survives

  delta = sim.advance();
  EXPECT_EQ(delta.time, 3);
  EXPECT_EQ(sim.alive()[1], 1);  // recovered
  ASSERT_EQ(delta.departed.size(), 1u);
  EXPECT_EQ(sim.present()[2], 0);
  EXPECT_TRUE(sim.done());
  EXPECT_EQ(sim.snapshot().num_edges(), 1);  // 0-1; node 2 is gone
}

TEST(ChurnSimulatorTest, LinkEventsToggleEdgesWithoutKillingNodes) {
  const Graph g = graph::make_ring(4);
  ChurnPlan plan;
  plan.events.push_back({ChurnEventType::kLinkDown, 1, 0, 1});
  plan.events.push_back({ChurnEventType::kLinkUp, 2, 0, 1});
  ChurnSimulator sim(g, plan);
  sim.advance();
  EXPECT_EQ(sim.snapshot().num_edges(), 3);
  EXPECT_EQ(sim.alive()[0], 1);
  sim.advance();
  EXPECT_EQ(sim.snapshot().num_edges(), 4);
}

TEST(ChurnGeneratorTest, DepartureWavesAreSeededAndSpareTheProducer) {
  const ChurnPlan a = make_departure_waves(20, 3, 2, 4, 5, 42);
  const ChurnPlan b = make_departure_waves(20, 3, 2, 4, 5, 42);
  const ChurnPlan c = make_departure_waves(20, 3, 2, 4, 5, 43);
  ASSERT_EQ(a.events.size(), 8u);
  ASSERT_EQ(b.events.size(), 8u);
  bool differs = a.events.size() != c.events.size();
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_NE(a.events[i].node, 3);  // never the producer
    if (!differs && i < c.events.size()) {
      differs = a.events[i].node != c.events[i].node;
    }
  }
  EXPECT_TRUE(differs) << "different seeds produced identical waves";
  const Graph g = graph::make_complete(20);
  EXPECT_TRUE(a.validate(g).ok());
}

TEST(ChurnGeneratorTest, MobilityChurnReplaysTheSnapshots) {
  util::Rng rng(7);
  MobilityConfig config;
  config.num_nodes = 25;
  config.radius = 0.3;
  RandomWaypointModel model(config, rng);
  const MobilityChurn churn = churn_from_mobility(model, 6, 0.5);
  ASSERT_TRUE(churn.plan.validate(churn.universe).ok());

  // Replaying the plan over the universe must reproduce every snapshot's
  // edge count at the matching tick.
  util::Rng rng2(7);
  RandomWaypointModel replay_model(config, rng2);
  ChurnSimulator sim(churn.universe, churn.plan);
  EXPECT_EQ(sim.snapshot().num_edges(),
            replay_model.topology().num_edges());
  while (!sim.done()) {
    const TopologyDelta delta = sim.advance();
    util::Rng rng3(7);
    RandomWaypointModel check(config, rng3);
    for (int t = 0; t < delta.time; ++t) check.step(0.5);
    EXPECT_EQ(sim.snapshot().num_edges(), check.topology().num_edges())
        << "tick " << delta.time;
  }
}

// --- Repair engine. -----------------------------------------------------

TEST(PlacementRepairTest, RejectsStructurallyInvalidInputs) {
  const Graph g = graph::make_grid(3, 3);
  core::PlacementRepairEngine engine;
  metrics::CacheState state(9, 2, 0);
  std::vector<char> alive(9, 1);

  std::vector<char> short_mask(5, 1);
  EXPECT_EQ(engine.repair(g, short_mask, 2, state).code(),
            util::StatusCode::kInvalidInput);
  EXPECT_EQ(engine.repair(g, alive, -1, state).code(),
            util::StatusCode::kInvalidInput);
  alive[0] = 0;  // dead producer
  EXPECT_EQ(engine.repair(g, alive, 2, state).code(),
            util::StatusCode::kInvalidInput);
}

TEST(PlacementRepairTest, EvictsDeadHoldersAndRestoresReplicas) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = make_problem(g, 12, 3, 3);
  core::ApproxFairCaching appx;
  core::FairCachingResult solved = appx.run(problem);
  metrics::CacheState state = solved.state;

  // Kill every holder of chunk 0 (producer still serves it).
  std::vector<char> alive(25, 1);
  const std::vector<NodeId> victims = state.holders(0);
  ASSERT_FALSE(victims.empty());
  for (NodeId v : victims) alive[static_cast<std::size_t>(v)] = 0;

  const PlacementRobustness before =
      evaluate_robustness(g, state, problem.num_chunks, &alive);

  core::PlacementRepairEngine engine;
  const auto repaired = engine.repair(g, alive, problem.num_chunks, state);
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  const core::RepairReport& report = repaired.value();

  EXPECT_TRUE(report.stop_reason.ok());
  EXPECT_GE(report.replicas_lost, static_cast<int>(victims.size()));
  EXPECT_GT(report.chunks_affected, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(
      core::validate_placement(state, problem.num_chunks, &alive).ok());
  // No dead node holds anything, and chunk 0 has live holders again unless
  // nothing improved on producer-only serving.
  for (NodeId v : victims) EXPECT_EQ(state.used(v), 0);

  const PlacementRobustness after =
      evaluate_robustness(g, state, problem.num_chunks, &alive);
  EXPECT_GE(after.reachable_fraction, before.reachable_fraction - 1e-12);
}

TEST(PlacementRepairTest, EvictOnlyLevelRestoresNothing) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 0, 2, 2);
  core::ApproxFairCaching appx;
  metrics::CacheState state = appx.run(problem).state;
  std::vector<char> alive(16, 1);
  const std::vector<NodeId> victims = state.holders(0);
  ASSERT_FALSE(victims.empty());
  alive[static_cast<std::size_t>(victims.front())] = 0;

  core::RepairOptions options;
  options.level = core::RepairLevel::kEvictOnly;
  core::PlacementRepairEngine engine(options);
  const auto repaired = engine.repair(g, alive, problem.num_chunks, state);
  ASSERT_TRUE(repaired.ok());
  EXPECT_GT(repaired.value().replicas_lost, 0);
  EXPECT_EQ(repaired.value().replicas_restored, 0);
  EXPECT_EQ(repaired.value().chunks_unrepaired,
            repaired.value().chunks_affected);
  EXPECT_TRUE(
      core::validate_placement(state, problem.num_chunks, &alive).ok());
}

TEST(PlacementRepairTest, StarTopologyEscalatesToResolve) {
  // On a star with the producer at the hub, every leaf is one hop from the
  // producer, so no local re-host has positive hop gain — the lost replica
  // forces a per-chunk ConFL escalation.
  const Graph g = graph::make_star(8);
  metrics::CacheState state(8, 2, 0);
  state.add(3, 0);
  std::vector<char> alive(8, 1);
  alive[3] = 0;

  core::PlacementRepairEngine engine;
  const auto repaired = engine.repair(g, alive, 1, state);
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  EXPECT_EQ(repaired.value().replicas_lost, 1);
  EXPECT_EQ(repaired.value().chunks_local, 0);
  EXPECT_EQ(repaired.value().chunks_resolved, 1);
  EXPECT_TRUE(core::validate_placement(state, 1, &alive).ok());
}

TEST(PlacementRepairTest, CountsUnservableStrandedDemand) {
  // Path 0-1-2-3 with the middle node dead: nodes 2, 3 are cut off from
  // the producer's component and hold no copy — stranded, not repairable.
  const Graph g = graph::make_path(4);
  metrics::CacheState state(4, 1, 0);
  std::vector<char> alive = {1, 0, 1, 1};

  core::PlacementRepairEngine engine;
  const auto repaired = engine.repair(g, alive, 2, state);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value().unservable_pairs, 2L * 2L);  // nodes {2,3} × 2
  EXPECT_EQ(repaired.value().chunks_affected, 0);
}

// --- (b)+(c)+(d) Chaos sweep. -------------------------------------------

TEST(ChurnChaosSweepTest, SeededTimelinesValidMonotoneAndThreadInvariant) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    graph::RandomGeometricConfig geo;
    geo.num_nodes = 40;
    geo.radius = 0.28;
    const graph::GeometricNetwork net =
        graph::make_random_geometric(geo, rng);
    const core::FairCachingProblem problem =
        make_problem(net.graph, 0, 3, 3);
    core::ApproxFairCaching appx;
    const metrics::CacheState initial = appx.run(problem).state;
    const ChurnPlan plan = make_departure_waves(
        geo.num_nodes, 0, /*waves=*/3, /*per_wave=*/4, /*period=*/2, seed);

    // Manual replay asserting the invariants after every single repair.
    {
      ChurnSimulator sim(net.graph, plan);
      metrics::CacheState state = initial;
      core::PlacementRepairEngine engine;
      while (!sim.done()) {
        sim.advance();
        const Graph snapshot = sim.snapshot();
        const PlacementRobustness before = evaluate_robustness(
            snapshot, state, problem.num_chunks, &sim.alive());
        const auto repaired =
            engine.repair(snapshot, sim.alive(), problem.num_chunks, state);
        ASSERT_TRUE(repaired.ok()) << repaired.status().message();
        ASSERT_TRUE(core::validate_placement(state, problem.num_chunks,
                                             &sim.alive())
                        .ok())
            << "seed " << seed << " tick " << sim.time();
        const PlacementRobustness after = evaluate_robustness(
            snapshot, state, problem.num_chunks, &sim.alive());
        EXPECT_GE(after.reachable_fraction,
                  before.reachable_fraction - 1e-12)
            << "seed " << seed << " tick " << sim.time();
      }
    }

    // Thread invariance of the full run hash.
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    testutil::expect_thread_invariant(
        [&] { return run_churn(problem, initial, plan).value(); },
        churn_result_hash);
  }
}

// --- Budget / cancellation regressions (satellite f). --------------------

TEST(RepairCancellationTest, PreFiredTokenLeavesEvictOnlyValidState) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = make_problem(g, 12, 3, 3);
  core::ApproxFairCaching appx;
  metrics::CacheState state = appx.run(problem).state;
  std::vector<char> alive(25, 1);
  for (NodeId v : state.holders(0)) alive[static_cast<std::size_t>(v)] = 0;
  for (NodeId v : state.holders(1)) alive[static_cast<std::size_t>(v)] = 0;
  alive[12] = 1;

  util::CancelToken token = util::CancelToken::make();
  token.request_cancel();
  core::PlacementRepairEngine engine;
  const auto repaired =
      engine.repair(g, alive, problem.num_chunks, state,
                    util::RunBudget::cancellable(token));
  ASSERT_TRUE(repaired.ok());
  // Eviction (validity) ran; restoration did not.
  EXPECT_GT(repaired.value().replicas_lost, 0);
  EXPECT_EQ(repaired.value().replicas_restored, 0);
  EXPECT_EQ(repaired.value().stop_reason.code(),
            util::StatusCode::kCancelled);
  EXPECT_FALSE(repaired.value().complete());
  EXPECT_TRUE(
      core::validate_placement(state, problem.num_chunks, &alive).ok());
}

TEST(RepairCancellationTest, WorkCapSweepAlwaysLeavesValidDeterministicState) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = make_problem(g, 12, 3, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState solved = appx.run(problem).state;
  std::vector<char> alive(25, 1);
  for (NodeId v : solved.holders(0)) alive[static_cast<std::size_t>(v)] = 0;
  alive[12] = 1;

  std::uint64_t full_work = 0;
  {
    metrics::CacheState state = solved;
    core::PlacementRepairEngine engine;
    const auto repaired =
        engine.repair(g, alive, problem.num_chunks, state);
    ASSERT_TRUE(repaired.ok());
    full_work = repaired.value().work_units;
  }
  for (std::uint64_t cap = 0; cap <= full_work; cap += 25) {
    std::uint64_t first_hash = 0;
    for (int attempt = 0; attempt < 2; ++attempt) {
      metrics::CacheState state = solved;
      core::PlacementRepairEngine engine;
      const auto repaired =
          engine.repair(g, alive, problem.num_chunks, state,
                        util::RunBudget::work_units(cap));
      ASSERT_TRUE(repaired.ok()) << "cap " << cap;
      ASSERT_TRUE(
          core::validate_placement(state, problem.num_chunks, &alive).ok())
          << "cap " << cap;
      const std::uint64_t h = placement_hash(state);
      if (attempt == 0) {
        first_hash = h;
      } else {
        EXPECT_EQ(h, first_hash) << "cap " << cap << " not deterministic";
      }
    }
  }
}

// The local pass's re-host move on a seeded departure wave (connected ER,
// n = 120, 36 departures): every RepairReport counter and the repaired
// placement, pinned unlimited and under two work caps that cut the local
// pass short after its first and fourth candidate sweeps, each
// thread-invariant. The pins were recorded against the former all-pairs alive-hop
// matrix implementation.
TEST(RepairGoldenTest, DepartureWaveRepairIsPinned) {
  util::Rng rng(77);
  const Graph g = graph::make_erdos_renyi(120, 0.05, rng);
  ASSERT_TRUE(g.is_connected());
  const core::FairCachingProblem problem = make_problem(g, 0, 4, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState solved = appx.run(problem).state;
  ChurnSimulator sim(g, make_departure_waves(120, 0, 3, 12, 1, 5));
  while (!sim.done()) sim.advance();
  const Graph snapshot = sim.snapshot();

  // Detection charges one unit per chunk, the local pass n at set-up and n
  // before every candidate sweep; a cap one below the k-th sweep's total
  // stops the pass right after that sweep's charge.
  const std::uint64_t n = 120;
  const std::uint64_t q = 4;
  const struct {
    std::uint64_t cap;
    const char* report;
  } goldens[] = {
      {util::kNoWorkCap,
       "stop=0 lost=21 restored=21 affected=4 local=4 resolved=0 "
       "unrepaired=0 stranded=2 work=2644 placement=8db793336df9e643"},
      {q + n + 2 * n - 1,
       "stop=5 lost=21 restored=1 affected=4 local=0 resolved=0 "
       "unrepaired=4 stranded=2 work=364 placement=b37243575be7ead2"},
      {q + n + 5 * n - 1,
       "stop=5 lost=21 restored=4 affected=4 local=0 resolved=0 "
       "unrepaired=4 stranded=2 work=724 placement=21eb0a9393541e52"},
  };
  for (const auto& golden : goldens) {
    const std::string report = testutil::expect_thread_invariant([&] {
      core::PlacementRepairEngine engine;
      metrics::CacheState state = solved;
      const util::RunBudget budget =
          golden.cap == util::kNoWorkCap
              ? util::RunBudget()
              : util::RunBudget::work_units(golden.cap);
      const core::RepairReport r =
          engine
              .repair(snapshot, sim.alive(), problem.num_chunks, state, budget)
              .value();
      EXPECT_TRUE(
          core::validate_placement(state, problem.num_chunks, &sim.alive())
              .ok());
      return repair_summary(r, state);
    });
    EXPECT_EQ(report, golden.report) << "cap " << golden.cap;
  }
}

// A departure wave whose repair pass escalates six chunks: connected ER
// (n = 40, 8 chunks, capacity 2), half the nodes gone in two waves.
struct EscalationWave {
  EscalationWave() {
    util::Rng rng(1);
    g = graph::make_erdos_renyi(40, 0.10, rng);
    problem = make_problem(g, 0, 8, 2);
    solved = core::ApproxFairCaching().run(problem).state;
    ChurnSimulator sim(g, make_departure_waves(40, 0, 2, 10, 1, 1));
    while (!sim.done()) sim.advance();
    snapshot = sim.snapshot();
    alive = sim.alive();
  }
  EscalationWave(const EscalationWave&) = delete;
  EscalationWave& operator=(const EscalationWave&) = delete;

  // Repairs a copy of the solved placement; returns the report and the
  // repaired state.
  std::pair<core::RepairReport, metrics::CacheState> repair(
      const core::RepairOptions& options,
      const util::RunBudget& budget = {}) const {
    metrics::CacheState state = solved;
    core::PlacementRepairEngine engine(options);
    core::RepairReport report =
        engine.repair(snapshot, alive, problem.num_chunks, state, budget)
            .value();
    EXPECT_TRUE(
        core::validate_placement(state, problem.num_chunks, &alive).ok());
    return {std::move(report), std::move(state)};
  }

  Graph g;
  core::FairCachingProblem problem;  // borrows g
  metrics::CacheState solved;
  Graph snapshot;
  std::vector<char> alive;
};

// The escalation wave's report string plus placement hash, pinned
// unlimited and under two work caps inside Phase 2 — one right after the
// third escalation's charge(n), one inside the fourth escalation's ConFL
// solve — each thread-invariant. The pins were recorded against the
// implementation that built a fresh instance engine per escalated chunk.
TEST(RepairGoldenTest, EscalationRepairIsPinned) {
  const EscalationWave wave;
  ASSERT_TRUE(wave.g.is_connected());
  // Budget work (the repair's own charges plus the ConFL growth rounds)
  // reaches 892 when the third escalation starts; its charge(n) takes it
  // to 932, and the fourth escalation's solve runs from 994 to 1020.
  const struct {
    std::uint64_t cap;
    const char* report;
  } goldens[] = {
      {util::kNoWorkCap,
       "stop=0 lost=22 restored=7 affected=8 local=2 resolved=6 "
       "unrepaired=0 stranded=26 work=1008 placement=4d863a68e922e690"},
      {931,
       "stop=5 lost=22 restored=10 affected=8 local=2 resolved=2 "
       "unrepaired=4 stranded=26 work=888 placement=b011090b4f9461f5"},
      {1005,
       "stop=5 lost=22 restored=7 affected=8 local=2 resolved=3 "
       "unrepaired=3 stranded=26 work=928 placement=5594d3318401d381"},
  };
  for (const auto& golden : goldens) {
    const std::string report = testutil::expect_thread_invariant([&] {
      const auto [r, state] = wave.repair(
          {}, golden.cap == util::kNoWorkCap
                  ? util::RunBudget()
                  : util::RunBudget::work_units(golden.cap));
      return repair_summary(r, state);
    });
    EXPECT_EQ(report, golden.report) << "cap " << golden.cap;
  }
}

// One instance engine serves every escalation of a pass, so a guard with
// cadence 1 audits each build after the first. A cost bit flip injected
// before build 2 is caught by that build's audit and quarantined; the
// rebuilt updater carries the pass to the unguarded pass's placement.
TEST(PlacementRepairTest, GuardAuditsTheSharedEscalationEngine) {
  const EscalationWave wave;
  core::RepairOptions unguarded;
  unguarded.approx.instance.guard.enabled = false;
  const auto [plain, plain_state] = wave.repair(unguarded);
  ASSERT_GE(plain.chunks_resolved, 2);
  const std::uint64_t want = placement_hash(plain_state);

  core::RepairOptions guarded;
  guarded.approx.instance.guard.cadence = 1;
  guarded.approx.instance.guard.budget_share = 1.0;  // never throttled
  {
    const auto [r, state] = wave.repair(guarded);
    EXPECT_EQ(r.guard.audits, plain.chunks_resolved - 1);
    EXPECT_TRUE(r.guard.clean());
    EXPECT_EQ(placement_hash(state), want);
  }
  StateFaultInjector injector(
      {/*seed=*/3, {{StateFaultClass::kCostBitFlip, /*build=*/2}}});
  injector.attach(guarded.approx.instance);
  const auto [r, state] = wave.repair(guarded);
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(r.guard.quarantines, 1);
  ASSERT_FALSE(r.guard.events.empty());
  for (const core::CorruptionEvent& event : r.guard.events) {
    EXPECT_EQ(event.build, 2) << event.what;
  }
  EXPECT_EQ(placement_hash(state), want);
}

TEST(RepairCancellationTest, MidRepairCancelNeverTearsThePlacement) {
  const Graph g = graph::make_grid(8, 8);
  const core::FairCachingProblem problem = make_problem(g, 0, 4, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState solved = appx.run(problem).state;
  std::vector<char> alive(64, 1);
  for (metrics::ChunkId c = 0; c < 3; ++c) {
    for (NodeId v : solved.holders(c)) {
      alive[static_cast<std::size_t>(v)] = 0;
    }
  }
  alive[0] = 1;

  // Fire the token from another thread while the repair runs; whatever
  // point it lands at, the placement must be the last fully-applied state.
  for (int trial = 0; trial < 8; ++trial) {
    metrics::CacheState state = solved;
    util::CancelToken token = util::CancelToken::make();
    std::atomic<bool> go{false};
    std::thread firer([&] {
      while (!go.load()) {
      }
      for (int spin = 0; spin < trial * 700; ++spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      token.request_cancel();
    });
    core::PlacementRepairEngine engine;
    go.store(true);
    const auto repaired =
        engine.repair(g, alive, problem.num_chunks, state,
                      util::RunBudget::cancellable(token));
    firer.join();
    ASSERT_TRUE(repaired.ok());
    EXPECT_TRUE(
        core::validate_placement(state, problem.num_chunks, &alive).ok())
        << "trial " << trial;
  }
}

TEST(RunChurnTest, WorkCapAndCancelSurfaceAsLastStop) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = make_problem(g, 12, 3, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState initial = appx.run(problem).state;
  const ChurnPlan plan = make_departure_waves(25, 12, 2, 3, 2, 11);

  ChurnRunConfig config;
  config.repair_work_cap = 30;  // far below one full repair pass
  const auto run = run_churn(problem, initial, plan, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().last_stop.code(),
            util::StatusCode::kResourceExhausted);
  ASSERT_FALSE(run.value().reports.empty());
  for (const core::RepairReport& report : run.value().reports) {
    if (report.chunks_affected > 0) {
      EXPECT_FALSE(report.complete());
    }
  }
  EXPECT_TRUE(core::validate_placement(run.value().state,
                                       problem.num_chunks,
                                       &run.value().alive)
                  .ok());
}

// --- Tentpole layer 4: agreement with the message-level channel. ---------

TEST(ChurnDistAgreementTest, FaultPlanTranscriptionMatchesSimulatorLiveness) {
  const Graph g = graph::make_grid(4, 4);
  ChurnPlan plan;
  plan.initially_absent = {15};
  plan.events.push_back({ChurnEventType::kCrash, 1, 3});
  plan.events.push_back({ChurnEventType::kDepart, 2, 7});
  plan.events.push_back({ChurnEventType::kRecover, 4, 3});
  plan.events.push_back({ChurnEventType::kArrive, 3, 15});
  plan.events.push_back({ChurnEventType::kLinkDown, 1, 0, 1});
  ASSERT_TRUE(plan.validate(g).ok());

  const int rounds_per_tick = 5;
  const FaultPlan faults = churn_to_fault_plan(plan, rounds_per_tick);
  EXPECT_TRUE(validate_fault_plan(faults, g.num_nodes()).ok());

  ChurnSimulator sim(g, plan);
  while (!sim.done()) sim.advance();

  // Drive the channel past the last tick; its liveness must agree with the
  // simulator's final mask node by node.
  FaultyChannel channel(faults, g.num_nodes());
  const int final_round = (sim.time() + 1) * rounds_per_tick;
  for (int r = 0; r < final_round; ++r) channel.transmit({});
  const std::vector<char> channel_alive = channel.alive_mask();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(static_cast<int>(channel_alive[static_cast<std::size_t>(v)]),
              static_cast<int>(sim.alive()[static_cast<std::size_t>(v)]))
        << "node " << v;
  }
}

TEST(ChurnDistAgreementTest, DistRunUnderChurnPlanAgreesOnCasualties) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 0, 2, 3);
  const ChurnPlan plan = make_departure_waves(16, 0, 1, 2, 1, 99);

  DistributedConfig config;
  config.faults = churn_to_fault_plan(plan, /*rounds_per_tick=*/1);
  DistributedFairCaching dist(config);
  const core::FairCachingResult result = dist.run(problem);

  ChurnSimulator sim(g, plan);
  while (!sim.done()) sim.advance();
  ASSERT_EQ(result.alive.size(), static_cast<std::size_t>(16));
  for (NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(result.node_alive(v),
              sim.alive()[static_cast<std::size_t>(v)] != 0)
        << "node " << v;
  }
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);

  // The repair engine accepts the protocol's casualty view directly.
  metrics::CacheState state = result.state;
  core::PlacementRepairEngine engine;
  const auto repaired =
      engine.repair(sim.snapshot(), result.alive, problem.num_chunks, state);
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  EXPECT_TRUE(core::validate_placement(state, problem.num_chunks,
                                       &result.alive)
                  .ok());
}

// --- run_churn timeline shape. ------------------------------------------

TEST(RunChurnTest, TimelineRecordsDegradeAndRepairPerTick) {
  const Graph g = graph::make_grid(5, 5);
  const core::FairCachingProblem problem = make_problem(g, 12, 3, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState initial = appx.run(problem).state;
  const ChurnPlan plan = make_departure_waves(25, 12, 3, 3, 2, 5);

  const auto run = run_churn(problem, initial, plan);
  ASSERT_TRUE(run.ok());
  const ChurnRunResult& result = run.value();
  // 1 initial + (post-event + post-repair) per event-bearing tick.
  ASSERT_EQ(result.timeline.samples().size(), 1u + 2u * 3u);
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_TRUE(result.last_stop.ok());
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const ChurnSample& post_event = result.timeline.samples()[1 + 2 * i];
    const ChurnSample& post_repair =
        result.timeline.samples()[2 + 2 * i];
    EXPECT_EQ(post_event.phase, ChurnPhase::kPostEvent);
    EXPECT_EQ(post_repair.phase, ChurnPhase::kPostRepair);
    EXPECT_EQ(post_event.time, post_repair.time);
    EXPECT_GE(post_repair.reachable_fraction,
              post_event.reachable_fraction - 1e-12);
    EXPECT_DOUBLE_EQ(result.reports[i].cost_before,
                     post_event.component_cost);
    EXPECT_DOUBLE_EQ(result.reports[i].cost_after,
                     post_repair.component_cost);
  }
  EXPECT_TRUE(core::validate_placement(result.state, problem.num_chunks,
                                       &result.alive)
                  .ok());
}

TEST(RunChurnTest, ProducerCrashDegradesGracefullyAndRepairResumes) {
  const Graph g = graph::make_grid(4, 4);
  const core::FairCachingProblem problem = make_problem(g, 5, 2, 3);
  core::ApproxFairCaching appx;
  const metrics::CacheState initial = appx.run(problem).state;

  ChurnPlan plan;
  plan.events.push_back({ChurnEventType::kCrash, 1, 5});
  plan.events.push_back({ChurnEventType::kRecover, 3, 5});
  const auto run = run_churn(problem, initial, plan);
  ASSERT_TRUE(run.ok()) << run.status().message();
  const auto& samples = run.value().timeline.samples();
  ASSERT_EQ(samples.size(), 5u);
  // While the producer is down the component metrics read zero...
  EXPECT_EQ(samples[1].component_nodes, 0);
  EXPECT_DOUBLE_EQ(samples[1].component_cost, 0.0);
  // ...and once it recovers the component is whole again.
  EXPECT_EQ(samples[4].component_nodes, 16);
  EXPECT_TRUE(core::validate_placement(run.value().state,
                                       problem.num_chunks,
                                       &run.value().alive)
                  .ok());
}

}  // namespace
}  // namespace faircache::sim
