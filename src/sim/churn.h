#pragma once

// Seeded topology churn and the self-healing runtime (docs/CHURN.md).
//
// A ChurnPlan is a deterministic timeline of *topology* events — permanent
// departures, crash/recover windows, node arrivals, link outages — over a
// fixed universe graph, the topology-level complement of the message-level
// sim::FaultPlan. A ChurnSimulator replays the plan tick by tick;
// run_churn() drives the full degrade-and-repair loop: after every tick it
// measures the placement (reachable-fraction, fairness, contention cost on
// the producer's alive component), lets core::PlacementRepairEngine restore
// coverage under a work-unit budget, and measures again, producing a
// ChurnTimeline — graceful degradation as a time series (bench/abl_churn).
//
// Determinism: a plan is pure data; the simulator replays it identically
// every run, and every measured quantity and repair decision is
// bit-identical at any thread count, so a whole churn run can be pinned by
// a single hash (churn_result_hash).

#include <cstdint>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/repair.h"
#include "graph/graph.h"
#include "sim/faults.h"
#include "sim/mobility.h"
#include "util/status.h"

namespace faircache::sim {

enum class ChurnEventType {
  kDepart,    // `node` leaves permanently (replicas lost)
  kCrash,     // `node` goes down until a matching kRecover
  kRecover,   // `node` comes back (its cache survived the crash? no —
              // recovery restores the node empty-handed at the topology
              // level; what it stores is the placement layer's business)
  kArrive,    // `node` joins; it must be listed in initially_absent
  kLinkDown,  // link {node, peer} goes down
  kLinkUp,    // link {node, peer} comes back
};

struct ChurnEvent {
  ChurnEventType type = ChurnEventType::kDepart;
  int time = 0;  // tick index, >= 0
  graph::NodeId node = graph::kInvalidNode;
  graph::NodeId peer = graph::kInvalidNode;  // link events only
};

// Deterministic churn schedule over a universe graph. Events are applied
// in (time, plan order); the plan itself is pure data and can be stored,
// hashed, or transcribed into a message-level FaultPlan
// (churn_to_fault_plan) so sim::Dist degrades against the same timeline.
struct ChurnPlan {
  std::uint64_t seed = 0x5eed;
  std::vector<ChurnEvent> events;
  // Nodes absent from tick 0 until their kArrive event (they exist in the
  // universe graph but are not part of the network yet).
  std::vector<graph::NodeId> initially_absent;
  // Universe links that start down (e.g. mobility universes contain every
  // link that is *ever* up; the ones not up at t = 0 are listed here).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> initially_down_links;

  // Replay validation against `universe`: every id in range, every link an
  // actual universe edge, no negative times, no event on a departed or
  // not-yet-arrived node, no crash of a crashed node / recovery of a
  // running one, no double link-down / link-up, arrivals only for
  // initially_absent nodes. kInvalidInput names the first offence.
  util::Status validate(const graph::Graph& universe) const;

  bool empty() const {
    return events.empty() && initially_absent.empty() &&
           initially_down_links.empty();
  }
};

// Everything that changed at one tick, in plan order.
struct TopologyDelta {
  int time = -1;
  std::vector<graph::NodeId> departed;
  std::vector<graph::NodeId> crashed;
  std::vector<graph::NodeId> recovered;
  std::vector<graph::NodeId> arrived;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> links_down;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> links_up;
};

// Replays a validated ChurnPlan over its universe. advance() jumps to the
// next tick that has events and applies all of them; snapshot() is the
// current topology — universe edges whose link is up and whose endpoints
// are both alive (dead and absent nodes are isolated).
class ChurnSimulator {
 public:
  // FAIRCACHE_CHECKs plan.validate(universe). The universe must outlive
  // the simulator.
  ChurnSimulator(const graph::Graph& universe, ChurnPlan plan);

  bool done() const { return next_event_ >= plan_.events.size(); }
  int time() const { return time_; }
  // Applies every event of the next event-bearing tick. CHECKs !done().
  TopologyDelta advance();

  graph::Graph snapshot() const;
  // Alive = present and not crashed. Absent (departed / not yet arrived)
  // nodes are dead by definition.
  const std::vector<char>& alive() const { return alive_; }
  const std::vector<char>& present() const { return present_; }
  const graph::Graph& universe() const { return *universe_; }
  const ChurnPlan& plan() const { return plan_; }

 private:
  const graph::Graph* universe_;
  ChurnPlan plan_;  // events stable-sorted by time
  std::size_t next_event_ = 0;
  int time_ = -1;
  std::vector<char> alive_;
  std::vector<char> present_;
  std::vector<char> link_up_;  // per universe edge id
};

// --- Plan generators -----------------------------------------------------

// `waves` waves of `per_wave` permanent departures at ticks period,
// 2·period, ...; victims are drawn without replacement from the
// still-present non-producer nodes by a seeded rng.
ChurnPlan make_departure_waves(int num_nodes, graph::NodeId producer,
                               int waves, int per_wave, int period,
                               std::uint64_t seed);

// Churn derived from random-waypoint mobility: the universe is the union
// of every link that is up in any of the `ticks + 1` snapshots (t = 0 and
// after each step), and link up/down events record each flip between
// consecutive snapshots. Node set is static — mobility moves nodes, it
// does not kill them.
struct MobilityChurn {
  graph::Graph universe;
  ChurnPlan plan;
};

MobilityChurn churn_from_mobility(RandomWaypointModel& model, int ticks,
                                  double dt);

// Transcribes a churn plan into the message-level FaultPlan vocabulary:
// tick t maps to bus round t·rounds_per_tick; departures become permanent
// CrashEvents, crash/recover pairs become crash windows, initially-absent
// nodes are down from round 0 until their arrival, and link outages become
// LinkFaults. This is how sim::Dist runs under the *same* timeline the
// repair engine sees, so both agree on who is alive (tentpole layer 4).
FaultPlan churn_to_fault_plan(const ChurnPlan& plan, int rounds_per_tick);

// --- Timeline ------------------------------------------------------------

enum class ChurnPhase {
  kInitial,     // before any event
  kPostEvent,   // right after a tick's events, before repair
  kPostRepair,  // after the repair pass for that tick
};

// One measurement of the placement against the current topology. Every
// field is bit-deterministic (no wall-clock anywhere), which is what makes
// whole-timeline hashing meaningful.
struct ChurnSample {
  int time = -1;
  ChurnPhase phase = ChurnPhase::kInitial;
  int alive_nodes = 0;
  int component_nodes = 0;  // producer's alive component (0: producer dead)
  int total_stored = 0;     // replicas currently placed network-wide
  // Alive-masked robustness over the full snapshot (all components).
  double reachable_fraction = 1.0;
  double mean_hops = 0.0;
  long unreachable_pairs = 0;
  // Total contention cost of the placement restricted to the producer's
  // alive component (0 when the producer is down).
  double component_cost = 0.0;
  // Fairness of per-node stored counts across alive non-producer nodes.
  double jain = 1.0;
  double gini = 0.0;
};

class ChurnTimeline {
 public:
  void record(const ChurnSample& sample) { samples_.push_back(sample); }
  const std::vector<ChurnSample>& samples() const { return samples_; }

  // FNV-1a over every recorded field of every sample, in order. Two runs
  // with the same hash walked through bit-identical degradation states.
  std::uint64_t hash() const;

 private:
  std::vector<ChurnSample> samples_;
};

// --- The degrade-and-repair loop -----------------------------------------

struct ChurnRunConfig {
  core::RepairOptions repair;
  // Work-unit cap per repair pass (kNoWorkCap = unlimited). Work-unit
  // budgets are deterministic, so capped runs stay thread-invariant.
  std::uint64_t repair_work_cap = util::kNoWorkCap;
  // External cancellation observed by every repair pass.
  util::CancelToken cancel;
};

struct ChurnRunResult {
  ChurnTimeline timeline;
  std::vector<core::RepairReport> reports;  // one per event-bearing tick
  metrics::CacheState state;                // final placement
  std::vector<char> alive;
  std::vector<char> present;
  // OK, or the budget/cancel status of the repair pass that was cut short
  // (the run itself still completes and keeps measuring).
  util::Status last_stop;
};

// Runs `plan` against `problem` (whose network is the churn universe),
// starting from `initial` — typically a solver output on the full
// universe. Per event-bearing tick: advance, measure (kPostEvent), repair
// under the configured budget, measure again (kPostRepair); the repair's
// cost_before/cost_after are filled from those two component costs.
//
// The producer dying is graceful, not fatal: repair is skipped while it is
// down (component metrics read 0) and resumes if a recovery brings it
// back. kInvalidInput is returned only for structural problems — a plan
// that fails validation, or `initial` sized for a different network.
util::Result<ChurnRunResult> run_churn(const core::FairCachingProblem& problem,
                                       const metrics::CacheState& initial,
                                       const ChurnPlan& plan,
                                       const ChurnRunConfig& config = {});

// Hash of everything deterministic about a run: the timeline hash mixed
// with each report's counters and the final placement. The chaos-sweep
// test pins this across thread counts.
std::uint64_t churn_result_hash(const ChurnRunResult& result);

}  // namespace faircache::sim
