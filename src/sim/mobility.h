#pragma once

// Random-waypoint mobility — the "fluid edge environment" of the paper's
// introduction. The paper assumes the topology is stable while placement
// runs (§III-A) and cites proactive-caching work for the mobile case; this
// model lets experiments quantify how a placement computed at t = 0
// degrades as devices move (bench/abl_mobility).

#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "util/rng.h"

namespace faircache::sim {

struct MobilityConfig {
  int num_nodes = 50;
  double area = 1.0;        // side of the square arena
  double radius = 0.2;      // radio range for topology snapshots
  double min_speed = 0.01;  // area units per time unit
  double max_speed = 0.05;
};

// Nodes head for a waypoint and pick the next one on arrival, without
// dwelling there (zero pause time).
class RandomWaypointModel {
 public:
  RandomWaypointModel(MobilityConfig config, util::Rng& rng);

  // Advances all nodes by dt time units.
  void step(double dt);

  double time() const { return time_; }
  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }

  // Connectivity snapshot at the current positions (may be disconnected —
  // that is the point of the experiment).
  graph::Graph topology() const;

 private:
  MobilityConfig config_;
  util::Rng rng_;
  double time_ = 0.0;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> wx_;     // waypoint
  std::vector<double> wy_;
  std::vector<double> speed_;

  void pick_waypoint(std::size_t v);
};

// Robustness of a placement on a (possibly disconnected) topology
// snapshot: for every (non-producer node, chunk) pair, can the node still
// reach a copy (holder or producer), and at what hop distance? Hardened
// for the degenerate inputs churn produces: a disconnected snapshot just
// yields reachable_fraction < 1, an empty placement (or producer-only
// chunk) measures distance to the producer alone, an invalid producer id
// contributes no source, and zero pairs reports reachable_fraction = 1.
struct PlacementRobustness {
  double reachable_fraction = 0.0;  // fetches with any reachable copy
  double mean_hops = 0.0;           // mean hop distance among reachable
  long pairs = 0;                   // (consumer, chunk) pairs measured
  long reachable_pairs = 0;         // pairs with any reachable copy
};

// `alive` (optional, sized num_nodes) excludes dead nodes entirely: they
// are neither sources, nor consumers, nor relays on a fetch path — exactly
// the liveness view core::PlacementRepairEngine repairs against.
PlacementRobustness evaluate_robustness(const graph::Graph& snapshot,
                                        const metrics::CacheState& placement,
                                        int num_chunks,
                                        const std::vector<char>* alive =
                                            nullptr);

}  // namespace faircache::sim
