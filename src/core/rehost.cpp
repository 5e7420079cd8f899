#include "core/rehost.h"

#include <algorithm>

#include "graph/shortest_paths.h"
#include "util/parallel.h"

namespace faircache::core {

using graph::NodeId;

RehostResult greedy_rehost(const graph::CsrAdjacency& adj,
                           const metrics::CacheState& state,
                           metrics::ChunkId chunk,
                           const std::vector<char>* alive, int radius,
                           int max_copies, const util::RunBudget& budget) {
  const std::size_t n = adj.offset.size() - 1;
  const int* offset = adj.offset.data();
  const NodeId* neighbor = adj.neighbor.data();
  const char* live = alive != nullptr ? alive->data() : nullptr;
  auto is_live = [live](std::size_t v) { return live == nullptr || live[v]; };

  // Hop distance to the nearest copy (kUnreachable: none reachable), kept
  // current by an improvements-only BFS from every new copy.
  std::vector<int> nearest(n, graph::kUnreachable);
  std::vector<NodeId> wave;
  auto add_copy = [&](NodeId v) {
    const auto vv = static_cast<std::size_t>(v);
    if (!is_live(vv) || nearest[vv] == 0) return;
    nearest[vv] = 0;
    wave.push_back(v);
  };
  auto relax = [&]() {
    for (std::size_t head = 0; head < wave.size(); ++head) {
      const NodeId v = wave[head];
      const int dv = nearest[static_cast<std::size_t>(v)] + 1;
      for (int e = offset[v]; e < offset[v + 1]; ++e) {
        const auto w = static_cast<std::size_t>(neighbor[e]);
        if (is_live(w) && nearest[w] > dv) {
          nearest[w] = dv;
          wave.push_back(neighbor[e]);
        }
      }
    }
    wave.clear();
  };
  add_copy(state.producer());
  for (NodeId h : state.holders(chunk)) add_copy(h);
  relax();

  // Per-worker BFS-ball state.
  struct Ball {
    std::vector<unsigned> stamp;
    std::vector<NodeId> queue;
    unsigned gen = 0;
  };
  const int workers = util::resolve_parallel_threads(0, n);
  std::vector<Ball> balls(static_cast<std::size_t>(workers));
  for (Ball& w : balls) {
    w.stamp.assign(n, 0);
    w.queue.reserve(n);
  }
  std::vector<long long> gain(n);  // 0 for non-candidates: never wins

  RehostResult result;
  while (static_cast<int>(result.chosen.size()) < max_copies) {
    result.work_units += n;
    budget.charge(n);
    if (budget.expired()) {
      result.truncated = true;
      break;
    }
    // A node at depth ≥ max nearest saves nothing, so balls stop expanding
    // one level short of it (or at the radius, if closer).
    int farthest = 0;
    for (int d : nearest) {
      if (d != graph::kUnreachable) farthest = std::max(farthest, d);
    }
    const int limit = radius > 0 ? std::min(radius, farthest - 1)
                                 : farthest - 1;
    util::parallel_for(
        n,
        [&](std::size_t v, int worker) {
          gain[v] = 0;
          // A copy (nearest 0) gains exactly 0, so it is skipped too.
          if (!is_live(v) || nearest[v] == 0 ||
              nearest[v] == graph::kUnreachable ||
              !state.can_cache(static_cast<NodeId>(v), chunk)) {
            return;
          }
          Ball& w = balls[static_cast<std::size_t>(worker)];
          if (++w.gen == 0) {  // stamp wrap-around
            std::fill(w.stamp.begin(), w.stamp.end(), 0);
            w.gen = 1;
          }
          const unsigned gen = w.gen;
          long long sum = -static_cast<long long>(nearest[v]);  // penalty
          w.queue.clear();
          w.queue.push_back(static_cast<NodeId>(v));
          w.stamp[v] = gen;
          std::size_t head = 0;
          for (int depth = 0; head < w.queue.size(); ++depth) {
            const std::size_t level_end = w.queue.size();
            for (; head < level_end; ++head) {
              const NodeId u = w.queue[head];
              const int nu = nearest[static_cast<std::size_t>(u)];
              if (nu > depth) sum += nu - depth;
              if (depth >= limit) continue;
              for (int e = offset[u]; e < offset[u + 1]; ++e) {
                const auto x = static_cast<std::size_t>(neighbor[e]);
                if (w.stamp[x] == gen || !is_live(x)) continue;
                w.stamp[x] = gen;
                w.queue.push_back(neighbor[e]);
              }
            }
          }
          gain[v] = sum;
        },
        workers, budget);
    if (budget.expired()) {
      // The sweep may have returned with gains unwritten: discard it
      // rather than act on torn data.
      result.truncated = true;
      break;
    }
    long long best_gain = 0;
    NodeId best_v = graph::kInvalidNode;
    for (std::size_t v = 0; v < n; ++v) {  // ascending: smallest-id ties win
      if (gain[v] > best_gain) {
        best_gain = gain[v];
        best_v = static_cast<NodeId>(v);
      }
    }
    if (best_v == graph::kInvalidNode) break;  // no net improvement left
    result.chosen.push_back(best_v);
    add_copy(best_v);
    relax();
  }
  return result;
}

}  // namespace faircache::core
