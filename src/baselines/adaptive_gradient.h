#pragma once

// Ioannidis–Yeh adaptive caching ("Adaptive Caching Networks with
// Optimality Guarantees", PAPERS.md) adapted to the paper's contention
// model — the adaptive baseline for sim::ServingEngine.
//
// Each node v keeps a fractional cache vector y[v][c] ∈ [0,1] with
// Σ_c y[v][c] ≤ capacity(v). Every observed request (j, c) contributes an
// unbiased subgradient estimate of the expected caching gain along the
// hop-shortest path j → producer: a copy at node v saves the remaining
// upstream contention cost (measured in static node-contention units
// Σ w_u, w_u = degree), discounted by the probability
// Π_{u earlier on the path}(1 − y[u][c]) that no earlier copy already
// served the request. At every period boundary the accumulated mean
// subgradient is applied as one projected-gradient step: ascend, project
// each node's vector onto {0 ≤ y ≤ 1, Σ_c y ≤ cap} (Euclidean projection
// via λ-bisection water-filling), and round deterministically to an
// integral placement (largest y first, ties toward the smaller chunk id).
// The rounding is the "state" the serving engine routes against.
//
// Everything is deterministic — no RNG, no threads — so serving runs that
// use this policy stay hash-reproducible.

#include <string>
#include <vector>

#include "core/problem.h"
#include "metrics/cache_state.h"
#include "sim/serving.h"
#include "sim/workload.h"
#include "util/matrix.h"

namespace faircache::baselines {

struct AdaptiveGradientConfig {
  // Step size applied to the mean per-period subgradient.
  double step_size = 0.5;
};

class AdaptiveGradientCaching : public sim::ServingPolicy {
 public:
  AdaptiveGradientCaching(const core::FairCachingProblem& problem,
                          AdaptiveGradientConfig config = {});

  std::string name() const override { return "adaptive-gradient"; }

  // Accumulates the subgradient for one request; never changes state().
  bool observe(const sim::Request& request) override;

  // One projected-gradient step + rounding; true when the rounded
  // placement changed.
  bool end_period() override;

  const metrics::CacheState& state() const override { return state_; }

  const util::Matrix<double>& fractional() const { return y_; }
  long observed() const { return observed_; }
  int periods() const { return periods_; }

 private:
  // Euclidean projection of y_[v] onto {0 ≤ y ≤ 1, Σ ≤ capacity(v)}.
  void project_row(graph::NodeId v);
  // Deterministic top-capacity rounding into state_; true when changed.
  bool round_state();

  core::FairCachingProblem problem_;
  AdaptiveGradientConfig config_;
  metrics::CacheState state_;
  util::Matrix<double> y_;     // fractional cache variables y[v][c]
  util::Matrix<double> grad_;  // per-period subgradient accumulator
  std::vector<graph::NodeId> parent_;  // next hop toward the producer
  std::vector<double> weight_;         // static node contention w_k
  // Σ w_u over the hop-shortest path v → producer, both ends included.
  std::vector<double> upstream_;
  long observed_ = 0;  // requests in the current period
  int periods_ = 0;
};

}  // namespace faircache::baselines
