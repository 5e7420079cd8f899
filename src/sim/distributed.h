#pragma once

// "Dist" — the paper's Algorithm 2: a distributed, message-driven variant
// of the primal–dual growth in which every node maintains only its own dual
// variables and all coordination flows through the Table II messages,
// limited to a k-hop neighbourhood (k = 2 in the paper's evaluation).
//
// Per chunk:
//   1. The producer broadcasts NPI.
//   2. Nodes exchange CC/CC-REPLY within k hops and assemble local path
//      contention estimates Con_ij (nodes farther than k hops are unknown).
//   3. Bidding rounds: ACTIVE node j raises α_j each round; reaching
//      Con_ij triggers a TIGHT(j→i); tight bidders then grow β (payment
//      toward i's fairness cost) and γ (relay bids); γ_ij ≥ Con_ij
//      triggers SPAN(j→i).
//   4. A node whose fairness cost is covered by collected β payments and
//      that holds ≥ M outstanding SPANs declares itself ADMIN: NADMIN to
//      its TIGHT set, BADMIN broadcast, and a proactive fetch from the
//      producer. (Algorithm 2's transcription omits the β ≥ f_i gate; we
//      restore it so the distributed algorithm optimizes the same
//      objective as Algorithm 1 — see DESIGN.md §2.8.)
//   5. INACTIVE (frozen) nodes and the producer answer TIGHT with
//      FREEZE(source), which is how freezing waves propagate outward from
//      the producer and guarantee termination.
//
// Setting DistributedConfig::faults runs the whole exchange over a
// sim::FaultyChannel and arms the self-healing layer (docs/FAULTS.md):
// per-message ACK + retransmission with exponential backoff for the
// critical control messages, a bounded-round watchdog that force-freezes
// stragglers onto the producer, and crash repair that re-points every
// surviving node at a live source. With an all-zero FaultPlan the results
// (placements, costs, Table II message counts) are bit-identical to the
// fault-free path.

#include <optional>

#include "core/instance_builder.h"
#include "core/problem.h"
#include "sim/faults.h"
#include "sim/messages.h"
#include "util/status.h"

namespace faircache::sim {

struct DistributedConfig {
  int hop_limit = 2;        // k-hop range for CC/TIGHT/SPAN (paper: 2)
  double alpha_step = 1.0;  // U_α
  double beta_step = 1.0;   // U_β
  double gamma_step = 4.0;  // U_γ (see confl::ConflOptions::gamma_step)
  int span_threshold = 3;   // M SPAN requests to become ADMIN
  int max_rounds = 0;       // 0 = automatic bound
  core::InstanceOptions instance;  // fairness model (hop-shortest paths)
  // Fault injection: when set (even to an all-zero plan) every message
  // crosses a FaultyChannel and the reliability layer is enabled.
  std::optional<FaultPlan> faults;
};

class DistributedFairCaching : public core::CachingAlgorithm {
 public:
  explicit DistributedFairCaching(DistributedConfig config = {})
      : config_(std::move(config)) {}

  std::string name() const override { return "Dist"; }

  core::FairCachingResult run(const core::FairCachingProblem& problem) override;

  // Message traffic of the last run, aggregated over all chunks. Includes
  // the reliability/fault counters when a FaultPlan was configured.
  const MessageStats& message_stats() const { return stats_; }
  // Bidding rounds executed in the last run (sum over chunks).
  int total_rounds() const { return total_rounds_; }

  // Typed outcome of the last run's termination watchdog: OK when every
  // chunk's bidding converged on its own; kResourceExhausted when the
  // max_rounds bound tripped and stragglers were force-frozen onto the
  // producer (the run still terminates with a feasible placement — this is
  // the protocol-level analogue of an expired RunBudget, feeding
  // metrics::DegradationReport::protocol_outcome).
  const util::Status& protocol_outcome() const { return protocol_outcome_; }

 private:
  DistributedConfig config_;
  MessageStats stats_;
  int total_rounds_ = 0;
  util::Status protocol_outcome_;
};

}  // namespace faircache::sim
