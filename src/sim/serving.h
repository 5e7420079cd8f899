#pragma once

// Trace-driven streaming serving runtime — the production view of the
// paper's one-shot placement problem (ROADMAP open item 3). A
// ServingEngine replays a multi-million-request Zipf stream against a live
// placement: every request is routed to its cheapest copy (peer cache or
// producer fallback) with hit/relay accounting, new chunks are published
// online through core::OnlineFairCaching on first request (per-insert
// ConFL solves on the incremental engine, optional replacement), demand
// drifts via periodic Zipf rank reshuffles, and periodic re-optimization
// ticks re-solve the whole catalog with the anytime
// core::ApproxFairCaching::solve under a util::RunBudget and adopt the
// result. Alternative placement drivers (the Ioannidis–Yeh adaptive
// projected-gradient baseline in baselines/adaptive_gradient.h) plug in
// through the ServingPolicy interface. Design notes: docs/SERVING.md.
//
// Everything is deterministic under a fixed seed at any thread count —
// serving_result_hash pins a whole run (bench/abl_serving --smoke checks
// the hash across thread counts in CI).

#include <cstdint>
#include <string>
#include <vector>

#include "core/online.h"
#include "core/problem.h"
#include "sim/workload.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::sim {

// Pluggable per-request placement driver. ServingEngine::run serves each
// request against policy->state() through its own cost engine
// (core::ChunkInstanceEngine::sync / query_cost); observe() and
// end_period() return true when the placement changed so the engine can
// resync lazily instead of per request.
class ServingPolicy {
 public:
  virtual ~ServingPolicy() = default;
  virtual std::string name() const = 0;
  // Observes one request before it is served (subgradient accumulation,
  // popularity counters, ...). True when state() changed.
  virtual bool observe(const Request& request) = 0;
  // Period boundary, every ServingConfig::adapt_every requests. True when
  // state() changed.
  virtual bool end_period() = 0;
  virtual const metrics::CacheState& state() const = 0;
};

struct ServingConfig {
  // Placement engine + replacement policy for the built-in online driver.
  // `online.approx.instance` (row layout / radius / guard) also
  // configures the cost-query engine used for external policies.
  core::OnlineConfig online;
  std::uint64_t seed = 0x5eed;
  long requests = 1000000;
  // Zipf demand model over the problem's chunk catalog. The producer's
  // demand is zero (it already holds everything); every other node draws
  // one activity level in [min_activity, max_activity).
  double zipf_exponent = 0.8;
  double min_activity = 0.5;
  double max_activity = 1.5;
  // Requests between demand-drift events — each reshuffles the Zipf rank
  // permutation (which chunks are hot) and rebuilds the trace sampler.
  // 0 = static demand.
  long drift_every = 0;
  // Requests between re-optimization ticks for the built-in driver: the
  // catalog is re-solved by anytime ApproxFairCaching::solve under a
  // work-unit budget and the placement adopted wholesale. 0 = never.
  // Ignored when an external policy drives placement.
  long reopt_every = 0;
  std::uint64_t reopt_work_cap = util::kNoWorkCap;
  // Requests between external-policy end_period() calls. 0 = never.
  long adapt_every = 0;
  // Time-series resolution: the trace splits into this many windows with
  // one ServingSample recorded at the end of each.
  int samples = 32;
};

// One time-series point: window counters plus placement fairness at the
// window's upper edge.
struct ServingSample {
  long request_end = 0;      // requests served so far
  long window_local = 0;     // requester already held the chunk
  long window_relay = 0;     // served by a peer cache
  long window_producer = 0;  // producer fallback
  double window_cost = 0.0;  // summed fetch contention cost in the window
  double jain = 0.0;         // Jain's index over stored counts
  double gini = 0.0;         // Gini coefficient over stored counts
  int total_stored = 0;
};

struct ServingTotals {
  long requests = 0;
  long hits_local = 0;
  long hits_relay = 0;
  long producer_fetches = 0;
  long inserts = 0;         // first-request publications (built-in driver)
  long evictions = 0;       // replacement evictions (built-in driver)
  int reopt_ticks = 0;
  int degraded_chunks = 0;  // greedy-fallback chunks across reopt ticks
  int drift_events = 0;
  double total_cost = 0.0;  // summed fetch contention cost
};

struct ServingResult {
  std::string policy;  // "online-confl" or the external policy's name()
  ServingTotals totals;
  std::vector<ServingSample> series;
  metrics::CacheState state;  // final placement
  // The configured row layout; kept only for benchmark/ (ROADMAP item 9).
  core::ContentionMode contention_mode_used =
      core::ContentionMode::kIncremental;
  // Wall clock — excluded from serving_result_hash.
  double elapsed_seconds = 0.0;
  double requests_per_second = 0.0;
};

// FNV-1a over every deterministic field (policy, totals, series, final
// placement, configured row layout — not wall clock). Fixed seed ⇒ the
// same hash at any thread count.
std::uint64_t serving_result_hash(const ServingResult& result);

class ServingEngine {
 public:
  // The problem (and its network) must outlive the engine.
  ServingEngine(const core::FairCachingProblem& problem,
                ServingConfig config);

  // Replays the stream. `policy == nullptr` runs the built-in
  // OnlineFairCaching driver; otherwise requests are served against
  // policy->state(). kInvalidInput / kInfeasible for malformed problems
  // or configs — never a throw on validated input.
  util::Result<ServingResult> run(ServingPolicy* policy = nullptr);

 private:
  const core::FairCachingProblem* problem_;
  ServingConfig config_;
};

}  // namespace faircache::sim
