#pragma once

// Budgeted placement repair — the self-healing half of the churn runtime
// (docs/CHURN.md). A placement computed on a stable topology degrades when
// peers depart, crash, or lose links: replicas held by dead nodes are gone
// and the survivors fetch from farther away. The PlacementRepairEngine
// restores coverage with *local, bounded* adjustment instead of a full
// re-solve (the Ioannidis–Yeh adaptive-caching insight, PAPERS.md):
//
//   0. Evict: copies held by dead nodes are removed (holder-aliveness is a
//      validity requirement, so eviction always runs, even under an
//      expired budget) and counted as lost replicas per chunk.
//   1. Local re-hosting: for each affected chunk, replacement copies are
//      placed greedily on alive, capacity-respecting, reachable nodes that
//      maximize the net hop-distance saving, up to the number of replicas
//      lost — core::greedy_rehost (core/rehost.h), the move the anytime
//      fallback in core/approx also runs, in O(n + m) memory.
//   2. Escalation: a chunk whose local pass could not restore every lost
//      replica is re-solved from scratch — one per-chunk ConFL solve over
//      the producer's alive component, applied transactionally (the old
//      copies are only dropped once the solver has succeeded). One
//      core::ChunkInstanceEngine serves the whole pass: the first
//      escalation induces the component and pins its BFS trees, every
//      later one delta-patches them (the topology is fixed for the pass).
//
// All three phases are cooperatively charged against a util::RunBudget and
// the result is *anytime*: whenever the budget expires (work cap, deadline
// or CancelToken) the engine stops between atomic placement operations, so
// the state it leaves behind always passes core::validate_placement — a
// partial repair is a valid repair. Work-unit charges happen at
// deterministic sequential points, so under a pure work-unit budget the
// repair (including where it truncates) is bit-identical at any thread
// count.

#include <cstdint>
#include <vector>

#include "core/approx.h"
#include "core/problem.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::core {

// How far a repair pass is allowed to escalate.
enum class RepairLevel {
  kEvictOnly,         // detection + eviction; nothing is restored
  kLocal,             // + greedy local re-hosting
  kLocalThenResolve,  // + per-affected-chunk ConFL re-solves (default)
};

struct RepairOptions {
  RepairLevel level = RepairLevel::kLocalThenResolve;
  // Solver configuration for escalation re-solves (contention engine,
  // Steiner engine, fairness model).
  ApproxConfig approx;
};

// Typed outcome of one repair pass. Timing fields are wall-clock and
// non-deterministic; everything else is bit-deterministic under a fixed
// work-unit budget at any thread count.
struct RepairReport {
  util::Status stop_reason;  // OK, or why the pass truncated early
  int replicas_lost = 0;      // copies evicted from dead holders
  int replicas_restored = 0;  // net copies added back across all chunks
  int chunks_affected = 0;    // chunks that lost at least one replica
  int chunks_local = 0;       // fully restored by the local pass alone
  int chunks_resolved = 0;    // escalated to a per-chunk ConFL re-solve
  int chunks_unrepaired = 0;  // affected chunks left short (budget/level)
  // (alive node, chunk) pairs with no reachable copy — demand stranded in
  // a component holding neither the producer nor a surviving replica.
  // Nothing can restore these until connectivity returns; they are the
  // graceful-degradation residue, not a repair failure.
  long unservable_pairs = 0;
  // Deterministic work units charged (detection, local set-up, candidate
  // sweeps, re-solve nodes) — the "repair work" compared against a full re-solve in
  // bench/abl_churn.
  std::uint64_t work_units = 0;
  // Total contention cost on the producer's alive component before and
  // after the pass. Filled by the churn runtime (sim::run_churn), which
  // already evaluates the timeline; the engine itself leaves them at -1
  // (a full evaluation does not belong under the repair budget).
  double cost_before = -1.0;
  double cost_after = -1.0;
  double detect_seconds = 0.0;   // eviction + reachability scan
  double local_seconds = 0.0;    // greedy re-hosting (BFS-ball sweeps)
  // Escalation: component induction, instance builds and ConFL solves.
  double resolve_seconds = 0.0;
  double total_seconds = 0.0;
  // Integrity-guard activity of the pass's escalation engine, which audits
  // its builds on the configured cadence (core/engine_guard.h).
  // guard.clean() for any healthy pass.
  CorruptionReport guard;

  bool complete() const { return chunks_unrepaired == 0; }
};

// Restriction of a placement to the alive nodes of the producer's
// connected component: the induced subgraph (with id maps) plus a
// CacheState over it mirroring per-node capacities and holdings. This is
// the instance every escalation re-solve and every component-level
// evaluation runs on. Requires the producer to be alive.
struct AliveComponent {
  graph::Subgraph sub;
  metrics::CacheState state;
};

AliveComponent induce_alive_component(const graph::Graph& snapshot,
                                      const std::vector<char>& alive,
                                      const metrics::CacheState& state);

class PlacementRepairEngine {
 public:
  explicit PlacementRepairEngine(RepairOptions options = {})
      : options_(std::move(options)) {}

  // Repairs `state` in place against the current topology `snapshot` and
  // liveness mask `alive` (dead nodes must be isolated in or absent from
  // the BFS reachability sense — the engine never routes through them).
  //
  //  * kInvalidInput for size mismatches, a negative chunk count or a dead
  //    producer — returned before any mutation.
  //  * Budget expiry is NOT an error: the result is OK, `state` is valid
  //    (eviction always completes) and the report's stop_reason carries
  //    the typed reason with per-chunk truncation counts.
  util::Result<RepairReport> repair(const graph::Graph& snapshot,
                                    const std::vector<char>& alive,
                                    int num_chunks,
                                    metrics::CacheState& state,
                                    const util::RunBudget& budget = {});

  const RepairOptions& options() const { return options_; }

 private:
  RepairOptions options_;
};

}  // namespace faircache::core
