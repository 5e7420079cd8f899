#pragma once

// Fault injection for the distributed algorithm's message substrate.
//
// The paper's Algorithm 2 runs over a multi-hop *wireless* edge network, so
// a faithful robustness study has to admit message loss, duplication, delay,
// reordering, and node churn. A FaultPlan is a deterministic, seeded
// description of those faults; a FaultyChannel executes the plan between
// MessageBus::send and delivery. With no channel attached the bus behaves
// exactly as before (bit-identical results), and even an attached channel
// with an all-zero plan leaves the application-level message flow unchanged
// — only the reliability layer (ACKs, see distributed.cpp) rides along.
//
// See docs/FAULTS.md for the reliability model and the guarantees the
// hardened protocol provides under this channel.

#include <cstdint>
#include <vector>

#include "sim/messages.h"
#include "util/rng.h"
#include "util/status.h"

namespace faircache::sim {

// One fail-stop episode: `node` is down for bus rounds
// [crash_round, restart_round). `restart_round < 0` means the node never
// comes back. While down, a node neither sends nor receives (the channel
// drops both directions) and its agent executes no protocol steps.
struct CrashEvent {
  graph::NodeId node = graph::kInvalidNode;
  int crash_round = 0;
  int restart_round = -1;  // exclusive; -1 = permanent crash
};

// One link outage: the undirected link {u, v} is down for bus rounds
// [down_round, up_round). `up_round < 0` means it never comes back. While
// down, every direct (u, v) or (v, u) transmission is lost (counted as
// link_dropped); multi-hop routes around the link are the protocol's
// business, not the channel's.
struct LinkFault {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  int down_round = 0;
  int up_round = -1;  // exclusive; -1 = permanently down
};

// Deterministic, seeded fault schedule. All probabilistic faults draw from
// one xoshiro stream seeded with `seed`, in message order, so a fixed plan
// reproduces an identical fault pattern run after run.
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  double drop_rate = 0.0;       // per-transmission loss probability
  double duplicate_rate = 0.0;  // probability a delivery is duplicated
  double delay_rate = 0.0;      // probability a delivery is postponed
  int max_delay_rounds = 2;     // delayed messages arrive 1..max rounds late
  bool reorder = false;         // shuffle each round's delivery order
  std::vector<CrashEvent> crashes;
  std::vector<LinkFault> link_faults;
};

// Non-throwing schedule validation: rates must be probabilities, delays at
// least one round late, every crash/link event in range with a
// chronologically valid window (no negative times, restart/up strictly
// after the outage starts), and no two windows for the same node or link
// overlapping (back-to-back windows sharing an endpoint are fine). The
// FaultyChannel constructor enforces exactly these predicates with
// FAIRCACHE_CHECK; callers with untrusted schedules validate first.
util::Status validate_fault_plan(const FaultPlan& plan, int num_nodes);

// Executes a FaultPlan. The channel sits between a MessageBus outbox and
// its delivery batch: MessageBus::deliver_round() hands the round's outbox
// to transmit(), which advances the channel's global round counter, applies
// crashes/drops/delays/duplicates/reordering, and returns what actually
// arrives this round. One channel is shared across every per-chunk bus of a
// run, so CrashEvent rounds index the whole run's bus rounds.
class FaultyChannel {
 public:
  explicit FaultyChannel(FaultPlan plan, int num_nodes);

  // Applies the plan to `outbox`, merges in previously delayed messages now
  // due, and returns this round's deliveries. Advances the round counter.
  std::vector<Message> transmit(std::vector<Message> outbox);

  // Liveness of `v` at the current round.
  bool alive(graph::NodeId v) const;
  // Liveness mask at the current round (indexed by node id).
  std::vector<char> alive_mask() const;

  int round() const { return round_; }
  // Non-ACK messages still queued for a later round.
  long app_in_flight() const;
  // Discards everything still in flight (used at chunk boundaries);
  // discarded application messages count as dropped.
  void flush();

  // Channel-side fault counters (dropped / crash_dropped / link_dropped /
  // duplicated / delayed); the `sent` array stays zero.
  const MessageStats& stats() const { return stats_; }

 private:
  bool alive_at(graph::NodeId v, int round) const;
  bool link_up_at(graph::NodeId u, graph::NodeId v, int round) const;

  FaultPlan plan_;
  int num_nodes_ = 0;
  int round_ = 0;
  util::Rng rng_;
  // Messages postponed by the delay fault, keyed by due round. Kept sorted
  // by (due_round, arrival order) for determinism.
  struct Delayed {
    int due_round;
    Message message;
  };
  std::vector<Delayed> delayed_;
  MessageStats stats_;
};

}  // namespace faircache::sim
