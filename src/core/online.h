#pragma once

// Online fair caching — the extension the paper lists as future work
// (§VI): chunks arrive over time and may become outdated, so the cache
// needs replacement. Each arriving chunk is placed by one per-chunk ConFL
// solve against the *current* state (exactly the iterative structure of
// Algorithm 1); retired chunks free their slots; optionally, full nodes
// stay eligible at an eviction penalty and evict their oldest chunk when
// selected.
//
// Instance builds run through core::ChunkInstanceEngine, so consecutive
// inserts pay the O(n+|Δ|) delta sweep of kIncremental/kSparse (with
// GuardOptions integrity audits) instead of a dense O(n·m) rebuild per
// chunk; kRebuild remains the stateless reference mode and reproduces the
// historical per-insert placements bit-identically. Access-cost and fetch
// queries reuse the same engine state (ChunkInstanceEngine::sync) instead
// of materializing an n×n ContentionMatrix per call — the property that
// makes sim::ServingEngine's request hot path O(holders) per request.

#include <unordered_set>
#include <vector>

#include "core/approx.h"
#include "core/problem.h"
#include "util/status.h"

namespace faircache::core {

enum class ReplacementPolicy {
  kNone,         // full nodes are never selected (the paper's base model)
  kEvictOldest,  // full nodes may be selected; oldest chunk is evicted
};

struct OnlineConfig {
  ApproxConfig approx;
  ReplacementPolicy replacement = ReplacementPolicy::kNone;
  // Added to a full node's fairness cost when replacement is enabled: the
  // price of evicting its oldest chunk. The fairness term itself is
  // computed as if one slot were free.
  double eviction_penalty = 1.0;
};

struct OnlineStepResult {
  metrics::ChunkId chunk = 0;
  std::vector<graph::NodeId> cache_nodes;   // where the chunk landed
  std::vector<graph::NodeId> evicted_from;  // nodes that evicted for it
};

// Where one fetch would be served from under the current placement: the
// cheapest copy by path contention cost among the chunk's holders and the
// producer (ties break toward the smallest holder id, producer last).
struct FetchDecision {
  graph::NodeId source = graph::kInvalidNode;
  double cost = 0.0;          // c(source, requester); 0 for a local hit
  bool local = false;         // requester already holds the chunk
  bool from_producer = false;
};

class OnlineFairCaching {
 public:
  OnlineFairCaching(const FairCachingProblem& problem, OnlineConfig config);

  // Places a newly published chunk; returns where it went and what was
  // evicted. kInvalidInput for a negative id or an id that is currently
  // published (inserted before and not yet retired) — a duplicate insert
  // used to silently evict for a copy it could never place. retire_chunk
  // frees the id for re-publication (an updated version of the chunk).
  util::Result<OnlineStepResult> try_insert_chunk(metrics::ChunkId chunk);

  // Throwing wrapper around try_insert_chunk for trusted callers.
  OnlineStepResult insert_chunk(metrics::ChunkId chunk);

  // Drops an outdated chunk from every cache and frees its id.
  void retire_chunk(metrics::ChunkId chunk);

  // Replaces the whole placement — the periodic re-optimization tick of
  // sim::ServingEngine hands the anytime ApproxFairCaching::solve result
  // here. The state must match this problem (size, producer, per-node
  // capacities) and pass verify_integrity; kInvalidInput otherwise.
  // Insertion ages are restamped deterministically (nodes ascending,
  // chunks ascending) and every held chunk id becomes published.
  util::Status adopt_placement(const metrics::CacheState& state);

  const metrics::CacheState& state() const { return state_; }
  long total_evictions() const { return total_evictions_; }

  // Access contention cost of fetching `chunk` from the current caches
  // (every live node fetches once, producer fallback included). Served
  // from engine state — no per-call matrix build.
  double access_cost(metrics::ChunkId chunk);

  // Cheapest source for one request under the current placement —
  // O(holders · log row) per call, the serving hot path.
  FetchDecision fetch(graph::NodeId requester, metrics::ChunkId chunk);

  // Structural self-check: state_.verify_integrity() plus the ages_ ↔
  // state bijection (every cached (node, chunk) pair has exactly one age
  // entry, every age entry a cached pair, stamps within [0, clock)).
  // kInvalidInput naming the first violation. Every mutation through
  // insert/retire/adopt preserves this.
  util::Status verify_consistency() const;

  // The contention engine the inserts actually run (kRebuild fallback
  // applied) and its integrity-guard activity.
  ContentionMode contention_mode_used() const { return engine_.mode_used(); }
  const CorruptionReport& guard_report() const {
    return engine_.guard_report();
  }

 private:
  // Engine state lags placement mutations; queries sync lazily.
  util::Status sync_queries();

  FairCachingProblem problem_;
  OnlineConfig config_;
  metrics::CacheState state_;
  ChunkInstanceEngine engine_;
  // Insertion age per (node, chunk) for oldest-first eviction.
  std::vector<std::vector<std::pair<long, metrics::ChunkId>>> ages_;
  std::unordered_set<metrics::ChunkId> published_;
  bool queries_dirty_ = true;
  long clock_ = 0;
  long total_evictions_ = 0;
};

}  // namespace faircache::core
