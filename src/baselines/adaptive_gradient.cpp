#include "baselines/adaptive_gradient.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"

namespace faircache::baselines {

using graph::NodeId;
using metrics::ChunkId;

// Fractional mass below this never rounds into a cache slot.
constexpr double kRoundEpsilon = 1e-9;

AdaptiveGradientCaching::AdaptiveGradientCaching(
    const core::FairCachingProblem& problem, AdaptiveGradientConfig config)
    : problem_(problem),
      config_(config),
      state_(problem.make_initial_state()) {
  FAIRCACHE_CHECK(problem_.network != nullptr, "problem needs a network");
  const auto n = static_cast<std::size_t>(problem_.network->num_nodes());
  const auto q = static_cast<std::size_t>(std::max(problem_.num_chunks, 0));
  y_.assign(n, q, 0.0);
  grad_.assign(n, q, 0.0);
  weight_ = metrics::node_contention(*problem_.network);

  const graph::BfsTree tree = graph::bfs(*problem_.network, problem_.producer);
  parent_ = tree.parent;
  // upstream_[v] = Σ w_u over the tree path v → producer: parents have
  // strictly smaller hop counts, so one pass in ascending-hop order
  // resolves every reachable node.
  upstream_.assign(n, 0.0);
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<NodeId>(v);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return tree.hops[static_cast<std::size_t>(a)] <
           tree.hops[static_cast<std::size_t>(b)];
  });
  for (NodeId v : order) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.hops[vi] == graph::kUnreachable) continue;
    upstream_[vi] = v == problem_.producer
                        ? weight_[vi]
                        : upstream_[static_cast<std::size_t>(parent_[vi])] +
                              weight_[vi];
  }
}

bool AdaptiveGradientCaching::observe(const sim::Request& request) {
  ++observed_;
  if (request.chunk < 0 || request.chunk >= problem_.num_chunks ||
      request.node < 0 ||
      request.node >= problem_.network->num_nodes()) {
    return false;
  }
  NodeId v = request.node;
  const auto c = static_cast<std::size_t>(request.chunk);
  double survive = 1.0;
  bool at_requester = true;
  while (v != problem_.producer && v != graph::kInvalidNode) {
    const auto vi = static_cast<std::size_t>(v);
    // A copy at the requester saves the whole fetch (c_vv = 0); a copy at
    // a relay saves the path segment strictly upstream of it.
    const double saving =
        at_requester ? upstream_[vi] : upstream_[vi] - weight_[vi];
    grad_[vi][c] += survive * saving;
    survive *= 1.0 - y_[vi][c];
    if (survive <= 0.0) break;
    v = parent_[vi];
    at_requester = false;
  }
  return false;
}

bool AdaptiveGradientCaching::end_period() {
  ++periods_;
  if (observed_ > 0 && problem_.num_chunks > 0) {
    const double scale =
        config_.step_size / static_cast<double>(observed_);
    for (NodeId v = 0; v < problem_.network->num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (v == problem_.producer) continue;
      for (std::size_t c = 0; c < y_.cols(); ++c) {
        y_[vi][c] += scale * grad_[vi][c];
        grad_[vi][c] = 0.0;
      }
      project_row(v);
    }
  }
  observed_ = 0;
  return round_state();
}

void AdaptiveGradientCaching::project_row(NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  double* row = y_[vi];
  const auto q = y_.cols();
  const double cap = static_cast<double>(state_.capacity(v));
  double clipped_sum = 0.0;
  double hi = 0.0;
  for (std::size_t c = 0; c < q; ++c) {
    clipped_sum += std::clamp(row[c], 0.0, 1.0);
    hi = std::max(hi, row[c]);
  }
  if (clipped_sum <= cap) {
    for (std::size_t c = 0; c < q; ++c) row[c] = std::clamp(row[c], 0.0, 1.0);
    return;
  }
  // Water-filling: find λ ≥ 0 with Σ clip(y − λ, 0, 1) = cap. The sum is
  // continuous and non-increasing in λ, so bisection converges; 60 halvings
  // put λ well below any meaningful fractional resolution.
  double lo = 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double sum = 0.0;
    for (std::size_t c = 0; c < q; ++c) {
      sum += std::clamp(row[c] - mid, 0.0, 1.0);
    }
    if (sum > cap) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  for (std::size_t c = 0; c < q; ++c) {
    row[c] = std::clamp(row[c] - hi, 0.0, 1.0);
  }
}

bool AdaptiveGradientCaching::round_state() {
  metrics::CacheState next = problem_.make_initial_state();
  std::vector<std::pair<double, ChunkId>> ranked;
  for (NodeId v = 0; v < state_.num_nodes(); ++v) {
    if (v == state_.producer()) continue;
    const auto vi = static_cast<std::size_t>(v);
    ranked.clear();
    for (std::size_t c = 0; c < y_.cols(); ++c) {
      if (y_[vi][c] > kRoundEpsilon) {
        ranked.emplace_back(y_[vi][c], static_cast<ChunkId>(c));
      }
    }
    // Largest fractional mass first; ties toward the smaller chunk id.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const auto take = std::min(ranked.size(),
                               static_cast<std::size_t>(
                                   std::max(next.capacity(v), 0)));
    for (std::size_t k = 0; k < take; ++k) {
      next.add(v, ranked[k].second);
    }
  }
  bool changed = false;
  for (NodeId v = 0; v < state_.num_nodes() && !changed; ++v) {
    changed = next.chunks_on(v) != state_.chunks_on(v);
  }
  state_ = std::move(next);
  return changed;
}

}  // namespace faircache::baselines
