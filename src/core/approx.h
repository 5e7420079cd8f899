#pragma once

// The paper's Algorithm 1 ("Appx"): for each chunk, rebuild fairness and
// contention costs from the current cache state, solve the resulting ConFL
// instance with the primal–dual approximation, cache the chunk on the ADMIN
// set, and move to the next chunk. Theorem 1 shows this iterated scheme
// preserves the approximation ratio of the underlying ConFL algorithm
// against the per-chunk optimal transform (8). The paper's 6.55 assumes
// the 1.55-approximate Robins–Zelikovsky Steiner tree; this library builds
// a 2(1 − 1/|T|)-approximate tree (steiner/steiner.h), so 6.55 is not
// proven for this code — it is the bound the tests check.
//
// The budget-aware entry point `solve` adds *anytime* semantics on top
// (docs/ROBUSTNESS.md): when the util::RunBudget expires mid-run, chunks
// already placed keep their ConFL solutions and every remaining chunk is
// placed by a cheap greedy hop-count fallback, so the caller always gets a
// feasible placement — never a throw, never an empty result.

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "core/problem.h"
#include "core/validate.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::core {

struct ApproxConfig {
  // Per-chunk ConFL solver knobs. Phase 2 builds Mehlhorn's
  // 2-approximate tree from one multi-source sweep (steiner/steiner.h).
  confl::ConflOptions confl;
  // `instance.contention_mode` selects the per-chunk row layout (dense or
  // CSR); either delta-patches pinned BFS trees between chunks
  // (core/instance_builder.h).
  InstanceOptions instance;
};

// Diagnostics of one anytime `solve` run: which chunks were degraded to
// the greedy fallback, where the time went, and why the run stopped early
// (stop_reason is OK for a run that completed under budget).
struct SolveReport {
  util::Status stop_reason;  // OK, kDeadlineExceeded, kCancelled, ...
  int chunks_total = 0;
  // Chunks placed by the greedy fallback instead of the ConFL solver,
  // ascending. Empty for a completed run.
  std::vector<metrics::ChunkId> degraded_chunks;
  double build_seconds = 0.0;     // per-chunk instance builds (lines 5–16)
  // Split of the contention-cost share of build_seconds: full builds
  // (pinning the BFS trees on chunk 0, or again after a quarantine) vs the
  // delta sweeps of the chunks after it. Their sum is ≤ build_seconds (the
  // remainder is fairness costs and plumbing).
  double build_tree_seconds = 0.0;
  double build_delta_seconds = 0.0;
  double solve_seconds = 0.0;     // ConFL solves (lines 17–47)
  double fallback_seconds = 0.0;  // greedy degraded-mode placement
  double total_seconds = 0.0;
  // Integrity-guard activity across the chunk loop: audits run/skipped,
  // detected corruptions, quarantine-to-rebuild recoveries
  // (core/engine_guard.h; docs/ROBUSTNESS.md, "Integrity guard").
  // guard.clean() for any healthy run.
  CorruptionReport guard;

  bool degraded() const { return !degraded_chunks.empty(); }
  int chunks_solved() const {
    return chunks_total - static_cast<int>(degraded_chunks.size());
  }
};

// Algorithm 1 without engine state: a fresh try_build_chunk_instance per
// chunk on `policy` paths, one ConFL solve, the opened facilities cached.
// The one solve path for min-contention routing, which the paper does not
// use: it prices hop-shortest paths, and min-contention routing is only
// the path-model ablation's variant. Under hop-shortest paths it is the
// reference that ApproxFairCaching's delta-patched chunk loop reproduces
// bit for bit (integer weights). Unbudgeted. kInvalidInput / kInfeasible as
// ApproxFairCaching::solve, and kInvalidInput for kSparse rows with
// kMinContention.
util::Result<FairCachingResult> stateless_solve(
    const FairCachingProblem& problem, const ApproxConfig& config = {},
    metrics::PathPolicy policy = metrics::PathPolicy::kHopShortest);

class ApproxFairCaching : public CachingAlgorithm {
 public:
  explicit ApproxFairCaching(ApproxConfig config = {})
      : config_(std::move(config)) {}

  std::string name() const override { return "Appx"; }

  FairCachingResult run(const FairCachingProblem& problem) override;

  // Budget-aware anytime variant of run().
  //
  //  * Malformed problems come back as kInvalidInput, a disconnected
  //    network as kInfeasible (core::validate_problem) — the only error
  //    returns.
  //  * Budget expiry (deadline, cancellation, work-unit cap) is NOT an
  //    error: the result is still OK and feasible. Chunks solved before
  //    expiry keep their ConFL placements; the rest fall back to the
  //    greedy hop-count set, and `report` (optional) records the degraded
  //    chunks, per-phase elapsed times, and the typed stop reason.
  //  * Under an unlimited budget the result is bit-identical to run() at
  //    any thread count (budget checks never touch solver arithmetic).
  util::Result<FairCachingResult> solve(const FairCachingProblem& problem,
                                        const util::RunBudget& budget = {},
                                        SolveReport* report = nullptr);

  const ApproxConfig& config() const { return config_; }

 private:
  ApproxConfig config_;
};

}  // namespace faircache::core
