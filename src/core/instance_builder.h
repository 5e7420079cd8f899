#pragma once

// Builds the per-chunk ConFL instance of transform (8): fairness degree
// costs as facility costs, path contention costs as assignment costs, and
// contention edge costs for the dissemination tree — all read from the
// *current* cache state, which is how Algorithm 1 couples consecutive
// chunks (caching a chunk raises a node's f_i and its 1+S(k) factor).
//
// core::ChunkInstanceEngine keeps one metrics::ContentionUpdater alive
// across the chunk loop: hop-shortest BFS trees are pinned once and each
// later chunk only applies the weight deltas from the nodes the previous
// placement touched (docs/PERF.md, "Contention updater"). The engine runs
// the paper's hop-shortest paths only. Min-contention paths (an ablation)
// depend on the weights themselves, so no tree can be pinned: their rows
// come from the stateless builder try_build_chunk_instance, chunk by chunk
// (core::stateless_solve). On the paper's integer-valued contention
// weights both builders are bit-identical under hop-shortest paths.

#include <functional>
#include <memory>

#include "confl/confl.h"
#include "core/engine_guard.h"
#include "core/problem.h"
#include "metrics/contention_updater.h"
#include "metrics/fairness.h"
#include "util/status.h"

namespace faircache::core {

class ChunkInstanceEngine;

// The row layout of the contention costs: a dense n×n
// ConflInstance::assign_cost, or ConflInstance::sparse_cost candidate rows.
enum class ContentionMode {
  // Dense rows: exact on integer-valued weights; the full build of every
  // chunk after the first drops from O(n·m) to one linear sweep. The
  // default.
  kIncremental,
  // CSR rows (metrics::SparseContention): only pairs within
  // `contention_radius` hops are materialized, breaking the O(n²) memory
  // wall (docs/PERF.md). With radius ≥ the graph diameter the placements
  // are bit-identical to kIncremental on connected networks.
  kSparse,
};

struct InstanceOptions {
  double edge_scale = 1.0;  // the M multiplier on dissemination edges
  metrics::FairnessModel fairness;
  // Optional demand matrix demand[chunk][node] (e.g. from
  // sim::generate_zipf_demand). When set, each chunk's ConFL instance
  // weights clients by their demand for that chunk instead of the paper's
  // uniform "every node wants every chunk" model.
  const std::vector<std::vector<double>>* demand = nullptr;
  // Row layout used by ChunkInstanceEngine (and thus by ApproxFairCaching's
  // chunk loop). The stateless try_build_chunk_instance below always builds
  // dense rows.
  ContentionMode contention_mode = ContentionMode::kIncremental;
  // Hop radius for kSparse: each facility row materializes only the
  // clients within this many hops (the producer's row is always full so
  // the dual growth terminates). ≤ 0 = unbounded — every reachable pair,
  // the bit-identical-to-dense setting.
  int contention_radius = 0;
  // Integrity-guard configuration for the contention updater: audit cadence,
  // sampled rows, audit-time budget (core/engine_guard.h and
  // docs/ROBUSTNESS.md, "Integrity guard"). Defaults keep checksums
  // maintained and audit every 16th build.
  GuardOptions guard;
  // Test-only: called by every ChunkInstanceEngine::build() that passes
  // validation, with the engine and the 1-based build index, before
  // auditing. sim::StateFaultInjector binds corruption campaigns here;
  // production code leaves it empty.
  std::function<void(ChunkInstanceEngine&, int)> pre_build_hook;
};

// Where the contention-build time went, cumulative over an engine's life:
// full builds (BFS trees + initial rows) vs delta sweeps (chunks after the
// first).
struct InstanceBuildStats {
  double tree_seconds = 0.0;
  double delta_seconds = 0.0;
};

// The returned instance borrows `problem.network`; it must outlive the
// instance. `chunk` selects the demand row when `options.demand` is set.
// Stateless and one-shot: fresh dense rows from a metrics::ContentionMatrix
// on `policy` paths — the one builder of min-contention rows. kInvalidInput
// for a missing network, a state sized for a different network, a demand
// matrix without a row for `chunk`, or kSparse with kMinContention (CSR
// rows pin hop-shortest trees; the pair never falls back to dense rows).
util::Result<confl::ConflInstance> try_build_chunk_instance(
    const FairCachingProblem& problem, const metrics::CacheState& state,
    const InstanceOptions& options, metrics::ChunkId chunk = 0,
    metrics::PathPolicy policy = metrics::PathPolicy::kHopShortest);

// Stateful instance factory for a chunk loop over one problem, on
// hop-shortest paths. The contention buffers and pinned BFS trees persist
// between build() calls; hand each solved instance back via reclaim() so
// the next build() can delta-patch the rows the solver just used instead
// of reconstructing them. Without reclaim() every build() is a full
// rebuild — still correct, just slower. The problem's network must outlive
// the engine and must not change topology while it is alive.
class ChunkInstanceEngine {
 public:
  ChunkInstanceEngine(const FairCachingProblem& problem,
                      const InstanceOptions& options);

  // Same contract (validation, outputs) as try_build_chunk_instance on the
  // same (problem, state, options, chunk).
  util::Result<confl::ConflInstance> build(const metrics::CacheState& state,
                                           metrics::ChunkId chunk);

  // Returns the cost buffers of an instance produced by build() to the
  // live updater. The instance is consumed.
  void reclaim(confl::ConflInstance&& instance);

  // Query-only synchronisation: brings the engine's contention costs in
  // line with `state` WITHOUT building a ConflInstance, so point queries
  // stay O(log row) instead of an n×n materialisation per caller
  // (core::OnlineFairCaching::access_cost / fetch, sim::ServingEngine).
  // Delta-patches the live updater (the first call pays the full build).
  // kInvalidInput like build() (missing network, state sized for a
  // different network). Audits ride build()'s cadence only — sync() never
  // consumes guard budget.
  util::Status sync(const metrics::CacheState& state);

  // True once sync() (or a build()/reclaim() round-trip) has costs home
  // and query_cost() may be called.
  bool query_ready() const;

  // Path contention cost c_ij against the last synced state. kSparse rows
  // answer graph::kInfCost for pairs outside the contention radius (the
  // producer's row is always full, so a producer fallback stays finite).
  // Requires query_ready().
  double query_cost(graph::NodeId i, graph::NodeId j) const;

  const InstanceBuildStats& stats() const { return stats_; }

  // Guard activity so far: audits run/skipped, mismatches, quarantines,
  // recovery time (core/engine_guard.h). Clean when nothing was detected.
  const CorruptionReport& guard_report() const { return guard_.report(); }

  // Test-only fault hook: forwards to the live updater's
  // corrupt_for_testing (sim/state_faults.h drives this through
  // InstanceOptions::pre_build_hook). False before the first build.
  bool corrupt_for_testing(const util::StateCorruption& corruption);

 private:
  // Cadence-gated audit of the live updater, run *before* its update()
  // consumes the pinned trees: with cadence 1 a corrupted interval array
  // is caught before it can misdirect (or overrun) the delta sweep. On a
  // failed audit the updater is destroyed and recreated — the next
  // update() re-pins fresh trees with the stateless rebuild arithmetic.
  void guard_tick(int build_index);

  // A fresh updater in the configured row layout.
  std::unique_ptr<metrics::ContentionUpdater> make_updater(
      bool checksums) const;
  // update() on the live updater, charging the build time to stats_;
  // returns the seconds spent.
  double update_updater(const metrics::CacheState& state);

  const FairCachingProblem* problem_;
  InstanceOptions options_;
  // Non-null exactly when the network is set, so after validation.
  std::unique_ptr<metrics::ContentionUpdater> updater_;
  InstanceBuildStats stats_;
  EngineGuard guard_;
  int builds_ = 0;          // build() calls so far (1-based index source)
  bool recovering_ = false;  // next update() is a quarantine rebuild
  int stale_restore_base_ = 0;  // stale restores from quarantined updaters
};

}  // namespace faircache::core
