#pragma once

// Builds the per-chunk ConFL instance of transform (8): fairness degree
// costs as facility costs, path contention costs as assignment costs, and
// contention edge costs for the dissemination tree — all read from the
// *current* cache state, which is how Algorithm 1 couples consecutive
// chunks (caching a chunk raises a node's f_i and its 1+S(k) factor).
//
// kRebuild constructs a fresh metrics::ContentionMatrix per chunk — the
// stateless reference path. kIncremental and kSparse keep one
// metrics::ContentionUpdater alive across the chunk loop (dense and CSR row
// layouts respectively): BFS trees are pinned once and each later chunk
// only applies the weight deltas from the nodes the previous placement
// touched (docs/PERF.md, "Contention updater"). On the paper's
// integer-valued contention weights the engines are bit-identical.

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

// How the per-chunk contention costs are produced across a chunk loop.
// Every mode except kSparse yields a dense n×n ConflInstance::assign_cost;
// kSparse yields ConflInstance::sparse_cost candidate rows instead. The
// engine's resolved choice (fallbacks applied) is surfaced by
// ChunkInstanceEngine::mode_used() and SolveReport::contention_mode_used.
enum class ContentionMode {
  // Delta-patch a persistent dense-layout ContentionUpdater (pinned BFS
  // trees). The default: exact on integer-valued weights, and the full
  // build phase of every chunk after the first drops from O(n·m) to one
  // linear sweep. Applies only under PathPolicy::kHopShortest;
  // kMinContention paths depend on the weights themselves and fall back to
  // kRebuild (mode_used() reports the fallback).
  kIncremental,
  // Fresh ContentionMatrix per chunk — the reference engine, bit-identical
  // to the historical per-chunk rebuild at any thread count.
  kRebuild,
  // The same updater over the CSR layout (metrics::SparseContention): only
  // pairs within `contention_radius` hops are materialized, breaking the
  // O(n²) memory wall (docs/PERF.md). Hop-shortest only (falls back to
  // kRebuild otherwise, like kIncremental). With radius ≥ the graph
  // diameter the placements are bit-identical to kIncremental on
  // connected networks.
  kSparse,
};

struct InstanceOptions {
  metrics::PathPolicy path_policy = metrics::PathPolicy::kHopShortest;
  double edge_scale = 1.0;  // the M multiplier on dissemination edges
  metrics::FairnessModel fairness;
  // Worker threads for the contention-matrix build (0 = the
  // util::parallel_threads() default, i.e. FAIRCACHE_THREADS or hardware
  // concurrency; 1 = fully serial). Results are identical at any setting.
  int threads = 0;
  // Optional demand matrix demand[chunk][node] (e.g. from
  // sim::generate_zipf_demand). When set, each chunk's ConFL instance
  // weights clients by their demand for that chunk instead of the paper's
  // uniform "every node wants every chunk" model.
  const std::vector<std::vector<double>>* demand = nullptr;
  // Contention engine used by ChunkInstanceEngine (and thus by
  // ApproxFairCaching's chunk loop). The stateless
  // try_build_chunk_instance below always rebuilds regardless.
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
  // Test-only: called at the top of every ChunkInstanceEngine::build()
  // with the engine and the 1-based build index, before validation and
  // auditing. sim::StateFaultInjector binds corruption campaigns here;
  // production code leaves it empty.
  std::function<void(ChunkInstanceEngine&, int)> pre_build_hook;
};

// Typed guard on the sparse store's packed 24-bit column limit:
// kInvalidInput when `num_nodes >= SparseContention::kMaxNodes`. Applied
// by try_build_chunk_instance / ChunkInstanceEngine whenever the sparse
// engine is requested, instead of aborting inside the builder.
util::Status validate_sparse_node_limit(int num_nodes);

// Where the contention-build time went, cumulative over an engine's life:
// full builds (BFS trees + initial matrix, and every kRebuild chunk) vs
// sparse delta sweeps (kIncremental chunks after the first).
struct InstanceBuildStats {
  double tree_seconds = 0.0;
  double delta_seconds = 0.0;
};

// The returned instance borrows `problem.network`; it must outlive the
// instance. `chunk` selects the demand row when `options.demand` is set.
// Always uses the kRebuild engine (stateless, one-shot).
confl::ConflInstance build_chunk_instance(const FairCachingProblem& problem,
                                          const metrics::CacheState& state,
                                          const InstanceOptions& options,
                                          metrics::ChunkId chunk = 0);

// Non-throwing variant for untrusted input: kInvalidInput for a missing
// network, a state sized for a different network, or a demand matrix
// without a row for `chunk`. A successful build is identical to
// build_chunk_instance.
util::Result<confl::ConflInstance> try_build_chunk_instance(
    const FairCachingProblem& problem, const metrics::CacheState& state,
    const InstanceOptions& options, metrics::ChunkId chunk = 0);

// Stateful instance factory for a chunk loop over one problem. In
// kIncremental mode the contention buffers and pinned BFS trees persist
// between build() calls; hand each solved instance back via reclaim() so
// the next build() can delta-patch the matrix the solver just used instead
// of reconstructing it. Without reclaim() (or in kRebuild mode, or under
// kMinContention) every build() is a full rebuild — still correct, just
// slower. The problem's network must outlive the engine and must not
// change topology while it is alive.
class ChunkInstanceEngine {
 public:
  ChunkInstanceEngine(const FairCachingProblem& problem,
                      const InstanceOptions& options);

  // Same contract (validation, outputs) as try_build_chunk_instance on the
  // same (problem, state, options, chunk).
  util::Result<confl::ConflInstance> build(const metrics::CacheState& state,
                                           metrics::ChunkId chunk);

  // Returns the cost buffers of an instance produced by build() to the
  // incremental engine. The instance is consumed. No-op outside
  // kIncremental / kSparse modes.
  void reclaim(confl::ConflInstance&& instance);

  // Query-only synchronisation: brings the engine's contention costs in
  // line with `state` WITHOUT building a ConflInstance, so point queries
  // stay O(log row) instead of an n×n materialisation per caller
  // (core::OnlineFairCaching::access_cost / fetch, sim::ServingEngine).
  // kIncremental / kSparse delta-patch the live updater (the first call
  // pays the full build); the kRebuild fallback keeps a private dense
  // matrix that is rebuilt only when the stored counts actually changed.
  // kInvalidInput for a state sized for a different network. Audits ride
  // build()'s cadence only — sync() never consumes guard budget.
  util::Status sync(const metrics::CacheState& state);

  // True once sync() (or a build()/reclaim() round-trip) has costs home
  // and query_cost() may be called.
  bool query_ready() const;

  // Path contention cost c_ij against the last synced state. kSparse rows
  // answer graph::kInfCost for pairs outside the contention radius (the
  // producer's row is always full, so a producer fallback stays finite).
  // Requires query_ready().
  double query_cost(graph::NodeId i, graph::NodeId j) const;

  // True when build() delta-patches (kIncremental or kSparse under
  // hop-shortest paths).
  bool incremental() const { return updater_ != nullptr; }

  // The contention mode build() actually runs: the requested mode with the
  // hop-shortest-only engines' kRebuild fallback applied.
  ContentionMode mode_used() const { return mode_used_; }

  const InstanceBuildStats& stats() const { return stats_; }

  // Guard activity so far: audits run/skipped, mismatches, quarantines,
  // recovery time (core/engine_guard.h). Clean when nothing was detected.
  const CorruptionReport& guard_report() const { return guard_.report(); }

  // Test-only fault hook: forwards to the live updater's
  // corrupt_for_testing (sim/state_faults.h drives this through
  // InstanceOptions::pre_build_hook). False in kRebuild mode (stateless —
  // nothing persists to corrupt) or before the first build.
  bool corrupt_for_testing(const util::StateCorruption& corruption);

 private:
  // Cadence-gated audit of the live updater, run *before* its update()
  // consumes the pinned trees: with cadence 1 a corrupted interval array
  // is caught before it can misdirect (or overrun) the delta sweep. On a
  // failed audit the updater is destroyed and recreated — the next
  // update() re-pins fresh trees with the stateless rebuild arithmetic.
  void guard_tick(int build_index);

  // A fresh updater in the layout of mode_used_.
  std::unique_ptr<metrics::ContentionUpdater> make_updater(
      bool checksums) const;
  // update() on the live updater, charging the build time to stats_;
  // returns the seconds spent.
  double update_updater(const metrics::CacheState& state);

  const FairCachingProblem* problem_;
  InstanceOptions options_;
  ContentionMode mode_used_ = ContentionMode::kRebuild;
  // Set at construction when the mode cannot run at all (sparse 24-bit
  // column limit); build() then fails fast with this status.
  util::Status init_status_;
  // Non-null in kIncremental / kSparse (dense / CSR layout).
  std::unique_ptr<metrics::ContentionUpdater> updater_;
  // kRebuild-mode query cache for sync()/query_cost(): the dense matrix of
  // the last synced state plus the stored counts it reflects (rebuilt only
  // when they change). Never set in the stateful modes.
  std::unique_ptr<metrics::ContentionMatrix> query_matrix_;
  std::vector<int> query_counts_;
  InstanceBuildStats stats_;
  EngineGuard guard_;
  int builds_ = 0;          // build() calls so far (1-based index source)
  bool recovering_ = false;  // next update() is a quarantine rebuild
  int stale_restore_base_ = 0;  // stale restores from quarantined updaters
};

}  // namespace faircache::core
