// Chaos tests for the fault-injection subsystem (sim/faults) and the
// self-healing distributed protocol built on it. Covers the four
// robustness guarantees documented in docs/FAULTS.md:
//   (a) a zero-fault FaultPlan is bit-identical to the fault-free path,
//   (b) the protocol terminates with full coverage under heavy loss,
//   (c) an ADMIN crash mid-bidding still yields a valid placement,
//   (d) a fixed fault seed reproduces the run exactly.

#include "sim/faults.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "sim/distributed.h"
#include "testutil.h"
#include "util/check.h"

namespace faircache::sim {
namespace {

using graph::Graph;
using graph::kInvalidNode;
using graph::NodeId;

using testutil::make_problem;

Message msg(MessageType type, NodeId from, NodeId to) {
  return {type, from, to, 0, kInvalidNode, 0.0};
}

// Every surviving non-producer node must be assigned a source that is the
// producer or a live node actually holding the chunk.
void expect_full_coverage(const core::FairCachingResult& result,
                          NodeId producer, int n) {
  for (const auto& placement : result.placements) {
    ASSERT_EQ(placement.assignment.size(), static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      if (v == producer || !result.node_alive(v)) continue;
      const NodeId src = placement.assignment[static_cast<std::size_t>(v)];
      ASSERT_NE(src, kInvalidNode) << "node " << v << " uncovered for chunk "
                                   << placement.chunk;
      if (src == producer) continue;
      EXPECT_TRUE(result.node_alive(src));
      EXPECT_TRUE(result.state.holds(src, placement.chunk))
          << "node " << v << " assigned to " << src
          << " which does not hold chunk " << placement.chunk;
    }
  }
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

// --- FaultyChannel unit tests. ---

TEST(FaultyChannelTest, CleanChannelDeliversEverythingInOrder) {
  FaultyChannel channel(FaultPlan{}, 4);
  std::vector<Message> out = {msg(MessageType::kTight, 0, 1),
                              msg(MessageType::kSpan, 2, 3)};
  const auto batch = channel.transmit(out);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].type, MessageType::kTight);
  EXPECT_EQ(batch[1].from, 2);
  EXPECT_EQ(channel.stats().dropped, 0);
  EXPECT_EQ(channel.app_in_flight(), 0);
}

TEST(FaultyChannelTest, DropRateOneLosesEveryMessage) {
  FaultPlan plan;
  plan.drop_rate = 1.0;
  FaultyChannel channel(plan, 4);
  const auto batch = channel.transmit(
      {msg(MessageType::kTight, 0, 1), msg(MessageType::kFreeze, 1, 2)});
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(channel.stats().dropped, 2);
}

TEST(FaultyChannelTest, DuplicateRateOneDoublesDeliveries) {
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  FaultyChannel channel(plan, 4);
  const auto batch = channel.transmit({msg(MessageType::kSpan, 0, 1)});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(channel.stats().duplicated, 1);
}

TEST(FaultyChannelTest, DelayedMessageArrivesLateAndCountsAsInFlight) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_rounds = 1;
  FaultyChannel channel(plan, 4);
  EXPECT_TRUE(channel.transmit({msg(MessageType::kFreeze, 0, 1)}).empty());
  EXPECT_EQ(channel.app_in_flight(), 1);
  const auto late = channel.transmit({});
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].type, MessageType::kFreeze);
  EXPECT_EQ(channel.stats().delayed, 1);
  EXPECT_EQ(channel.app_in_flight(), 0);
}

TEST(FaultyChannelTest, FlushDiscardsInFlightApplicationMessages) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_rounds = 3;
  FaultyChannel channel(plan, 4);
  channel.transmit({msg(MessageType::kFreeze, 0, 1)});
  EXPECT_EQ(channel.app_in_flight(), 1);
  channel.flush();
  EXPECT_EQ(channel.app_in_flight(), 0);
  EXPECT_EQ(channel.stats().dropped, 1);
}

TEST(FaultyChannelTest, CrashWindowSilencesNodeUntilRestart) {
  FaultPlan plan;
  plan.crashes.push_back({1, 2, 4});  // node 1 down for rounds [2, 4)
  FaultyChannel channel(plan, 4);

  EXPECT_EQ(channel.transmit({msg(MessageType::kTight, 0, 1)}).size(), 1u);
  EXPECT_TRUE(channel.alive(1));

  // Rounds 2 and 3: both directions dead.
  EXPECT_TRUE(channel.transmit({msg(MessageType::kTight, 0, 1)}).empty());
  EXPECT_FALSE(channel.alive(1));
  EXPECT_TRUE(channel.transmit({msg(MessageType::kTight, 1, 0)}).empty());
  EXPECT_EQ(channel.stats().crash_dropped, 2);

  // Round 4: restarted.
  EXPECT_EQ(channel.transmit({msg(MessageType::kTight, 0, 1)}).size(), 1u);
  EXPECT_TRUE(channel.alive(1));
  EXPECT_EQ(channel.alive_mask(), (std::vector<char>{1, 1, 1, 1}));
}

TEST(FaultyChannelTest, PermanentCrashNeverRevives) {
  FaultPlan plan;
  plan.crashes.push_back({2, 1, -1});
  FaultyChannel channel(plan, 3);
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(channel.transmit({msg(MessageType::kBadmin, 0, 2)}).empty());
  }
  EXPECT_EQ(channel.stats().crash_dropped, 5);
  EXPECT_FALSE(channel.alive(2));
}

TEST(FaultyChannelTest, RejectsMalformedPlans) {
  FaultPlan bad_rate;
  bad_rate.drop_rate = 1.5;
  EXPECT_THROW(FaultyChannel(bad_rate, 4), util::CheckError);

  FaultPlan bad_crash;
  bad_crash.crashes.push_back({7, 0, -1});  // unknown node
  EXPECT_THROW(FaultyChannel(bad_crash, 4), util::CheckError);

  FaultPlan bad_restart;
  bad_restart.crashes.push_back({0, 5, 3});  // restart before crash
  EXPECT_THROW(FaultyChannel(bad_restart, 4), util::CheckError);
}

// --- validate_fault_plan: every rejection is a typed kInvalidInput, and a
// valid plan round-trips through the channel constructor. ---

TEST(ValidateFaultPlanTest, AcceptsAWellFormedPlan) {
  FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.delay_rate = 0.2;
  plan.max_delay_rounds = 3;
  plan.crashes.push_back({1, 0, 4});
  plan.crashes.push_back({1, 4, -1});  // windows touch but do not overlap
  plan.link_faults.push_back({0, 2, 1, 5});
  plan.link_faults.push_back({2, 0, 5, -1});
  EXPECT_TRUE(validate_fault_plan(plan, 4).ok());
}

TEST(ValidateFaultPlanTest, RejectsEveryMalformation) {
  const auto reject = [](const FaultPlan& plan, int num_nodes = 4) {
    const util::Status status = validate_fault_plan(plan, num_nodes);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  };

  {
    FaultPlan plan;  // zero-node network
    reject(plan, 0);
  }
  {
    FaultPlan plan;  // rate outside [0, 1]
    plan.duplicate_rate = -0.5;
    reject(plan);
  }
  {
    FaultPlan plan;  // delay enabled but no delay horizon
    plan.delay_rate = 0.5;
    plan.max_delay_rounds = 0;
    reject(plan);
  }
  {
    FaultPlan plan;  // crash node out of range
    plan.crashes.push_back({4, 0, -1});
    reject(plan);
  }
  {
    FaultPlan plan;  // negative crash round
    plan.crashes.push_back({1, -2, -1});
    reject(plan);
  }
  {
    FaultPlan plan;  // overlapping crash windows on one node
    plan.crashes.push_back({1, 0, 5});
    plan.crashes.push_back({1, 3, 7});
    reject(plan);
  }
  {
    FaultPlan plan;  // second window opens inside a permanent one
    plan.crashes.push_back({2, 1, -1});
    plan.crashes.push_back({2, 9, 10});
    reject(plan);
  }
  {
    FaultPlan plan;  // link endpoint out of range
    plan.link_faults.push_back({0, 9, 0, -1});
    reject(plan);
  }
  {
    FaultPlan plan;  // self-loop link
    plan.link_faults.push_back({1, 1, 0, -1});
    reject(plan);
  }
  {
    FaultPlan plan;  // negative down round
    plan.link_faults.push_back({0, 1, -1, 2});
    reject(plan);
  }
  {
    FaultPlan plan;  // up before down
    plan.link_faults.push_back({0, 1, 5, 3});
    reject(plan);
  }
  {
    FaultPlan plan;  // overlapping outages of the same undirected link
    plan.link_faults.push_back({0, 1, 0, 5});
    plan.link_faults.push_back({1, 0, 3, 8});
    reject(plan);
  }
}

TEST(FaultyChannelTest, LinkFaultDropsBothDirectionsWhileDown) {
  FaultPlan plan;
  plan.link_faults.push_back({0, 1, 2, 4});  // link 0-1 down rounds [2, 4)
  FaultyChannel channel(plan, 4);

  // Round 1: link still up.
  EXPECT_EQ(channel.transmit({msg(MessageType::kTight, 0, 1)}).size(), 1u);

  // Rounds 2 and 3: both directions dropped; unrelated links unaffected.
  EXPECT_TRUE(channel.transmit({msg(MessageType::kTight, 0, 1)}).empty());
  const auto mixed = channel.transmit(
      {msg(MessageType::kTight, 1, 0), msg(MessageType::kSpan, 2, 3)});
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0].from, 2);
  EXPECT_EQ(channel.stats().link_dropped, 2);
  EXPECT_TRUE(channel.alive(0));  // link faults never kill nodes
  EXPECT_TRUE(channel.alive(1));

  // Round 4: link restored.
  EXPECT_EQ(channel.transmit({msg(MessageType::kTight, 1, 0)}).size(), 1u);
  EXPECT_EQ(channel.stats().link_dropped, 2);
}

TEST(FaultyChannelTest, DelayedDeliveryRespectsLinkOutage) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_rounds = 1;
  plan.link_faults.push_back({0, 1, 2, -1});  // down from round 2 forever
  FaultyChannel channel(plan, 4);
  // Sent on round 1 while the link is up, due on round 2 when it is down:
  // the in-flight message dies on the severed link.
  EXPECT_TRUE(channel.transmit({msg(MessageType::kTight, 0, 1)}).empty());
  EXPECT_TRUE(channel.transmit({}).empty());
  EXPECT_EQ(channel.stats().link_dropped, 1);
  EXPECT_EQ(channel.app_in_flight(), 0);
}

TEST(MessageBusTest, AcksAndRetransmitsBypassTableTwoCounters) {
  MessageBus bus;
  Message m = msg(MessageType::kSpan, 0, 1);
  m.seq = 7;
  bus.send(m);
  bus.resend(m);
  Message a = m;
  a.ack = true;
  bus.send(a);
  EXPECT_EQ(bus.stats().count(MessageType::kSpan), 1);
  EXPECT_EQ(bus.stats().total(), 1);
  EXPECT_EQ(bus.stats().retransmits, 1);
  EXPECT_EQ(bus.stats().acks, 1);
  // ACK-only traffic is invisible to the application-idle check.
  const auto batch = bus.deliver_round();
  EXPECT_EQ(batch.size(), 3u);
  bus.send(a);
  EXPECT_FALSE(bus.idle());
  EXPECT_TRUE(bus.app_idle());
}

// --- (a) Zero-fault plan ≡ fault-free path, bit for bit. ---

class ZeroFaultEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ZeroFaultEquivalenceTest, MatchesFaultFreeRunExactly) {
  const auto [rows, cols, producer, chunks, capacity] = GetParam();
  const Graph g = graph::make_grid(rows, cols);
  const auto problem = make_problem(g, producer, chunks, capacity);

  DistributedFairCaching plain;
  const auto base = plain.run(problem);

  DistributedConfig config;
  config.faults = FaultPlan{};  // channel + reliability on, zero faults
  DistributedFairCaching faulty(config);
  const auto hardened = faulty.run(problem);

  ASSERT_EQ(base.placements.size(), hardened.placements.size());
  for (std::size_t c = 0; c < base.placements.size(); ++c) {
    EXPECT_EQ(base.placements[c].cache_nodes,
              hardened.placements[c].cache_nodes);
    EXPECT_EQ(base.placements[c].solver_rounds,
              hardened.placements[c].solver_rounds);
    EXPECT_EQ(base.placements[c].assignment, hardened.placements[c].assignment);
  }
  EXPECT_EQ(base.state.stored_counts(), hardened.state.stored_counts());
  EXPECT_EQ(plain.total_rounds(), faulty.total_rounds());

  // Table II message counts are identical per type; the reliability layer
  // only adds (separately counted) ACKs.
  const MessageStats& a = plain.message_stats();
  const MessageStats& b = faulty.message_stats();
  for (int t = 0; t < kNumMessageTypes; ++t) {
    EXPECT_EQ(a.sent[static_cast<std::size_t>(t)],
              b.sent[static_cast<std::size_t>(t)])
        << to_string(static_cast<MessageType>(t));
  }
  EXPECT_EQ(a.total(), b.total());
  EXPECT_GT(b.acks, 0);
  EXPECT_EQ(b.retransmits, 0);
  EXPECT_EQ(b.dropped + b.crash_dropped + b.duplicated + b.delayed, 0);
  EXPECT_EQ(b.forced_freezes, 0);
  EXPECT_EQ(b.repaired_sources, 0);

  const auto base_eval = base.evaluate(problem);
  const auto hard_eval = hardened.evaluate(problem);
  EXPECT_DOUBLE_EQ(base_eval.access_cost, hard_eval.access_cost);
  EXPECT_DOUBLE_EQ(base_eval.dissemination_cost,
                   hard_eval.dissemination_cost);
}

INSTANTIATE_TEST_SUITE_P(
    SeedTopologies, ZeroFaultEquivalenceTest,
    ::testing::Values(std::make_tuple(6, 6, 9, 5, 5),
                      std::make_tuple(5, 5, 12, 3, 5),
                      std::make_tuple(4, 4, 0, 8, 2)));

// --- (b) Termination + full coverage under 20% loss. ---

TEST(ChaosTest, TwentyPercentLossTerminatesWithFullCoverage) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  FaultPlan plan;
  plan.seed = 0xf417;
  plan.drop_rate = 0.2;
  DistributedConfig config;
  config.faults = plan;
  DistributedFairCaching dist(config);
  const auto result = dist.run(problem);

  ASSERT_EQ(result.placements.size(), 5u);
  expect_full_coverage(result, 9, 36);

  const MessageStats& stats = dist.message_stats();
  EXPECT_GT(stats.dropped, 0);
  EXPECT_GT(stats.retransmits, 0);
  EXPECT_GT(stats.acks, 0);
  // Termination stayed within the per-chunk round bound (the watchdog
  // fires at the bound at the latest), so the sum is finite and modest.
  EXPECT_LE(dist.total_rounds(), 5 * 2000);
}

TEST(ChaosTest, LossDuplicationDelayReorderAndChurnStillCovered) {
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 12, 3, 5);

  FaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.1;
  plan.delay_rate = 0.1;
  plan.max_delay_rounds = 3;
  plan.reorder = true;
  plan.crashes.push_back({7, 10, 40});   // transient outage
  plan.crashes.push_back({18, 25, -1});  // permanent casualty
  DistributedConfig config;
  config.faults = plan;
  DistributedFairCaching dist(config);
  const auto result = dist.run(problem);

  ASSERT_EQ(result.alive.size(), 25u);
  EXPECT_TRUE(result.node_alive(7));    // restarted
  EXPECT_FALSE(result.node_alive(18));  // gone
  expect_full_coverage(result, 12, 25);
  // The casualty serves nothing and stores nothing in the final state.
  EXPECT_EQ(result.state.used(18), 0);
  for (const auto& placement : result.placements) {
    EXPECT_TRUE(std::find(placement.cache_nodes.begin(),
                          placement.cache_nodes.end(),
                          18) == placement.cache_nodes.end());
  }
  EXPECT_GT(dist.message_stats().deduplicated +
                dist.message_stats().duplicated,
            0);
}

// --- (c) ADMIN crash mid-bidding still yields a valid placement. ---

TEST(ChaosTest, AdminCrashMidBiddingIsRepaired) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  // Node 12 becomes an ADMIN for chunk 0 around bidding round 9 on the
  // fault-free timeline (bus rounds 4–13 are chunk 0's bidding). Killing
  // it at bus round 12 hits the window between its NADMIN/BADMIN burst
  // and the harvest.
  FaultPlan plan;
  plan.crashes.push_back({12, 12, -1});
  DistributedConfig config;
  config.faults = plan;
  DistributedFairCaching dist(config);
  const auto result = dist.run(problem);

  EXPECT_FALSE(result.node_alive(12));
  EXPECT_EQ(result.state.used(12), 0);
  for (const auto& placement : result.placements) {
    EXPECT_TRUE(std::find(placement.cache_nodes.begin(),
                          placement.cache_nodes.end(),
                          12) == placement.cache_nodes.end());
  }
  expect_full_coverage(result, 9, 36);
}

TEST(ChaosTest, AdminCrashAfterHarvestRepointsItsClients) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  // Node 12 caches chunk 0 on the fault-free timeline, then dies during
  // chunk 1. Its chunk-0 copy is gone, and every client that fetched from
  // it must be re-pointed at a surviving source.
  FaultPlan plan;
  plan.crashes.push_back({12, 20, -1});
  DistributedConfig config;
  config.faults = plan;
  DistributedFairCaching dist(config);
  const auto result = dist.run(problem);

  EXPECT_EQ(result.state.used(12), 0);
  EXPECT_GT(dist.message_stats().repaired_sources, 0);
  expect_full_coverage(result, 9, 36);
}

// --- (d) Determinism for a fixed fault seed. ---

TEST(ChaosTest, FixedFaultSeedIsReproducible) {
  const Graph g = graph::make_grid(6, 6);
  const auto problem = make_problem(g, 9, 5, 5);

  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 0.25;
  plan.duplicate_rate = 0.05;
  plan.delay_rate = 0.1;
  plan.max_delay_rounds = 2;
  plan.reorder = true;
  plan.crashes.push_back({20, 15, 60});
  DistributedConfig config;
  config.faults = plan;

  DistributedFairCaching a(config);
  DistributedFairCaching b(config);
  const auto ra = a.run(problem);
  const auto rb = b.run(problem);

  ASSERT_EQ(ra.placements.size(), rb.placements.size());
  for (std::size_t c = 0; c < ra.placements.size(); ++c) {
    EXPECT_EQ(ra.placements[c].cache_nodes, rb.placements[c].cache_nodes);
    EXPECT_EQ(ra.placements[c].assignment, rb.placements[c].assignment);
    EXPECT_EQ(ra.placements[c].solver_rounds, rb.placements[c].solver_rounds);
  }
  EXPECT_EQ(ra.state.stored_counts(), rb.state.stored_counts());
  EXPECT_EQ(a.message_stats().total(), b.message_stats().total());
  EXPECT_EQ(a.message_stats().retransmits, b.message_stats().retransmits);
  EXPECT_EQ(a.message_stats().dropped, b.message_stats().dropped);
  EXPECT_EQ(a.total_rounds(), b.total_rounds());

  // A different seed produces a different fault pattern.
  FaultPlan other = plan;
  other.seed = 4321;
  DistributedConfig other_config = config;
  other_config.faults = other;
  DistributedFairCaching c(other_config);
  c.run(problem);
  EXPECT_NE(a.message_stats().dropped, c.message_stats().dropped);
}

// Degradation report arithmetic.
TEST(DegradationReportTest, RatiosAndCoverage) {
  metrics::PlacementEvaluation base;
  base.access_cost = 80.0;
  base.dissemination_cost = 20.0;
  metrics::PlacementEvaluation degraded;
  degraded.access_cost = 110.0;
  degraded.dissemination_cost = 10.0;
  const auto report =
      metrics::make_degradation_report(0.97, degraded, base);
  EXPECT_DOUBLE_EQ(report.coverage, 0.97);
  EXPECT_DOUBLE_EQ(report.baseline_cost, 100.0);
  EXPECT_DOUBLE_EQ(report.degraded_cost, 120.0);
  EXPECT_DOUBLE_EQ(report.residual_cost_ratio, 1.2);
  EXPECT_DOUBLE_EQ(report.extra_cost, 20.0);
}

}  // namespace
}  // namespace faircache::sim
