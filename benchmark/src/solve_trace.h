#pragma once

// Algorithm 1 rebuilt from the library's public calls, with a timer around
// each layer: ChunkInstanceEngine::build (core.instance) →
// confl::try_solve_confl (confl) → CacheState::add for each open facility
// that can_cache (core.approx) → ChunkInstanceEngine::reclaim
// (core.instance). After each chunk's solve the Phase 2 Steiner tree is
// built once more with steiner::try_steiner_mst_approx on the same scaled
// edge costs and terminals (steiner); the solver's own tree must come out
// identical. The library itself carries no timers for this.
//
// Under an unlimited budget the result must equal
// core::ApproxFairCaching::solve bit for bit (same_result), which every
// workload checks.

#include <cstdint>

#include "core/approx.h"
#include "util/status.h"

namespace fcbench {

// Per-layer totals of one or more traced solves.
struct SolveLayers {
  double wall_ms = 0.0;     // the traced solve call, Steiner re-run excluded
  double build_ms = 0.0;    // engine construction + build() + reclaim()
  double tree_ms = 0.0;     // engine.stats().tree_seconds
  double delta_ms = 0.0;    // engine.stats().delta_seconds
  double confl_ms = 0.0;    // try_solve_confl, Phase 2 tree included
  double steiner_ms = 0.0;  // the Steiner re-run
  double audit_ms = 0.0;    // guard_report().audit_seconds
  long builds = 0;
  long rounds = 0;
  long open_facilities = 0;
  long terminals = 0;
  long tree_edges = 0;
  long audits = 0;

  // Time in the chunk loop outside every timed call.
  double loop_ms() const { return wall_ms - build_ms - confl_ms; }
  void add(const SolveLayers& other);
};

// The traced solve, adding its layer times and counts to `layers`.
// kInvalidInput / kInfeasible as solve() would return them; a Steiner
// re-run that differs from the solver's tree is kInvalidInput naming the
// chunk. Budget expiry returns the budget's status: the traced loop has
// no greedy fallback for the chunks it did not reach.
faircache::util::Result<faircache::core::FairCachingResult> traced_solve(
    const faircache::core::FairCachingProblem& problem,
    const faircache::core::ApproxConfig& config,
    const faircache::util::RunBudget& budget, SolveLayers& layers);

// Placements, per-chunk objective bits and rounds, and the final state of
// two solver results agree exactly.
bool same_result(const faircache::core::FairCachingResult& a,
                 const faircache::core::FairCachingResult& b);

// Fingerprint of a placement: every node's cached chunk list.
std::uint64_t state_hash(const faircache::metrics::CacheState& state);

}  // namespace fcbench
