#include "sim/mobility.h"

#include <cmath>

#include "graph/shortest_paths.h"

namespace faircache::sim {

RandomWaypointModel::RandomWaypointModel(MobilityConfig config,
                                         util::Rng& rng)
    : config_(config), rng_(rng.fork()) {
  FAIRCACHE_CHECK(config_.num_nodes >= 1, "need at least one node");
  FAIRCACHE_CHECK(config_.area > 0 && config_.radius > 0,
                  "area/radius must be positive");
  FAIRCACHE_CHECK(
      0 < config_.min_speed && config_.min_speed <= config_.max_speed,
      "speed range invalid");
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  x_.resize(n);
  y_.resize(n);
  wx_.resize(n);
  wy_.resize(n);
  speed_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    x_[v] = rng_.uniform(0.0, config_.area);
    y_[v] = rng_.uniform(0.0, config_.area);
    pick_waypoint(v);
  }
}

void RandomWaypointModel::pick_waypoint(std::size_t v) {
  wx_[v] = rng_.uniform(0.0, config_.area);
  wy_[v] = rng_.uniform(0.0, config_.area);
  speed_[v] = rng_.uniform(config_.min_speed, config_.max_speed);
}

void RandomWaypointModel::step(double dt) {
  FAIRCACHE_CHECK(dt >= 0, "negative time step");
  time_ += dt;
  for (std::size_t v = 0; v < x_.size(); ++v) {
    double remaining = dt;
    while (remaining > 0) {
      const double dx = wx_[v] - x_[v];
      const double dy = wy_[v] - y_[v];
      const double dist = std::sqrt(dx * dx + dy * dy);
      const double travel = speed_[v] * remaining;
      if (travel >= dist) {
        // Arrive and choose a new waypoint.
        x_[v] = wx_[v];
        y_[v] = wy_[v];
        remaining -= speed_[v] > 0 ? dist / speed_[v] : remaining;
        pick_waypoint(v);
      } else {
        x_[v] += dx / dist * travel;
        y_[v] += dy / dist * travel;
        remaining = 0;
      }
    }
  }
}

graph::Graph RandomWaypointModel::topology() const {
  graph::Graph g(config_.num_nodes);
  const double r2 = config_.radius * config_.radius;
  for (graph::NodeId u = 0; u < config_.num_nodes; ++u) {
    for (graph::NodeId v = u + 1; v < config_.num_nodes; ++v) {
      const double dx = x_[static_cast<std::size_t>(u)] -
                        x_[static_cast<std::size_t>(v)];
      const double dy = y_[static_cast<std::size_t>(u)] -
                        y_[static_cast<std::size_t>(v)];
      if (dx * dx + dy * dy <= r2) g.add_edge(u, v);
    }
  }
  return g;
}

PlacementRobustness evaluate_robustness(const graph::Graph& snapshot,
                                        const metrics::CacheState& placement,
                                        int num_chunks,
                                        const std::vector<char>* alive) {
  FAIRCACHE_CHECK(snapshot.num_nodes() == placement.num_nodes(),
                  "snapshot / placement size mismatch");
  FAIRCACHE_CHECK(num_chunks >= 0, "negative chunk count");
  FAIRCACHE_CHECK(alive == nullptr ||
                      static_cast<int>(alive->size()) ==
                          snapshot.num_nodes(),
                  "liveness mask size mismatch");
  const auto is_alive = [&](graph::NodeId v) {
    return alive == nullptr || (*alive)[static_cast<std::size_t>(v)] != 0;
  };
  PlacementRobustness result;
  double hop_sum = 0.0;

  for (metrics::ChunkId chunk = 0; chunk < num_chunks; ++chunk) {
    std::vector<graph::NodeId> sources = placement.holders(chunk);
    sources.push_back(placement.producer());
    // Distance from the nearest copy. Dead nodes are neither seeded nor
    // relayed through; an out-of-range producer (no producer present in
    // the snapshot) simply contributes no source.
    const std::vector<int> dist =
        graph::alive_multi_bfs(snapshot, sources, alive);
    for (graph::NodeId j = 0; j < snapshot.num_nodes(); ++j) {
      if (j == placement.producer() || !is_alive(j)) continue;
      ++result.pairs;
      if (dist[static_cast<std::size_t>(j)] != graph::kUnreachable) {
        ++result.reachable_pairs;
        hop_sum += dist[static_cast<std::size_t>(j)];
      }
    }
  }
  result.reachable_fraction =
      result.pairs == 0 ? 1.0
                        : static_cast<double>(result.reachable_pairs) /
                              static_cast<double>(result.pairs);
  result.mean_hops =
      result.reachable_pairs == 0
          ? 0.0
          : hop_sum / static_cast<double>(result.reachable_pairs);
  return result;
}

}  // namespace faircache::sim
