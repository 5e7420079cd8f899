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
// inserts pay the O(n+|Δ|) delta sweep (with GuardOptions integrity audits)
// instead of a dense O(n·m) rebuild per chunk; the placements are
// bit-identical to the historical stateless per-insert loop over
// try_build_chunk_instance. Access-cost and fetch queries reuse the same
// engine state (ChunkInstanceEngine::sync) instead of materializing an n×n
// ContentionMatrix per call. A fetch still lists the chunk's holders by
// scanning all n nodes (CacheState::holders) before its O(holders · log
// row) cost lookups, so sim::ServingEngine's request hot path is O(n) per
// request.

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

// The cheapest-copy decision for `requester` under `state`, priced by the
// engine's query_cost (which must be synced to `state` unless the request
// is a local hit). Shared by OnlineFairCaching::fetch and the serving
// engine's external-policy path.
FetchDecision cheapest_copy(const ChunkInstanceEngine& engine,
                            const metrics::CacheState& state,
                            graph::NodeId requester, metrics::ChunkId chunk);

class OnlineFairCaching {
 public:
  OnlineFairCaching(const FairCachingProblem& problem, OnlineConfig config);

  // Places a newly published chunk; returns where it went and what was
  // evicted. kInvalidInput for a negative id or an id that is currently
  // published (inserted before and not yet retired) — a duplicate insert
  // used to silently evict for a copy it could never place. retire_chunk
  // frees the id for re-publication (an updated version of the chunk).
  util::Result<OnlineStepResult> try_insert_chunk(metrics::ChunkId chunk);

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

  // Cheapest source for one request under the current placement — the
  // serving hot path: an O(n) holder scan plus O(holders · log row) cost
  // lookups per call.
  FetchDecision fetch(graph::NodeId requester, metrics::ChunkId chunk);

  // Structural self-check: state_.verify_integrity() plus the ages_ ↔
  // state bijection (every cached (node, chunk) pair has exactly one age
  // entry, every age entry a cached pair, stamps within [0, clock)).
  // kInvalidInput naming the first violation. Every mutation through
  // insert/retire/adopt preserves this.
  util::Status verify_consistency() const;

  // The configured row layout; kept only for benchmark/ (ROADMAP item 9).
  ContentionMode contention_mode_used() const {
    return config_.approx.instance.contention_mode;
  }
  // The engine's integrity-guard activity.
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
