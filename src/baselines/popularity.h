#pragma once

// Reactive, popularity-driven on-path caching — the content-centric family
// the paper's related work surveys (WAVE [8], MPC [11]): no global
// optimization at all; a request travels toward the nearest copy, every
// relay counts how often it has seen each chunk, and a relay that has seen
// a chunk at least `request_threshold` times caches it when it next
// forwards it (if it has room). This gives the library a trace-driven
// comparison point against the paper's proactive placements.

#include "core/problem.h"
#include "sim/workload.h"

namespace faircache::baselines {

struct PopularityConfig {
  // Requests a relay must observe for a chunk before it caches it.
  int request_threshold = 3;
};

struct RequestOutcome {
  graph::NodeId served_by = graph::kInvalidNode;
  int hops = 0;
  bool cache_hit = false;  // served by a cache rather than the producer
  std::vector<graph::NodeId> newly_cached_at;
};

class PopularityCaching {
 public:
  PopularityCaching(const core::FairCachingProblem& problem,
                    PopularityConfig config);

  // Routes one request to the hop-nearest copy, updates popularity
  // counters along the path and performs cache-on-path insertions.
  RequestOutcome process(const sim::Request& request);

  // Convenience: replays a whole trace.
  void replay(const std::vector<sim::Request>& trace);

  const metrics::CacheState& state() const { return state_; }
  long requests_processed() const { return requests_; }
  double hit_ratio() const {
    return requests_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(requests_);
  }

 private:
  const core::FairCachingProblem& problem_;
  PopularityConfig config_;
  metrics::CacheState state_;
  // seen_[node][chunk]: requests for `chunk` observed at `node`.
  std::vector<std::vector<int>> seen_;
  long requests_ = 0;
  long hits_ = 0;
};

}  // namespace faircache::baselines
