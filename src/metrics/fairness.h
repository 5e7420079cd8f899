#pragma once

// Fairness Degree Cost (paper Eq. 1) plus the battery extension sketched in
// the paper's footnote 1: a weighted sum of a storage term and a battery
// term, each shaped as used/(total − used) so that cost → ∞ as the resource
// is exhausted.

#include <vector>

#include "metrics/cache_state.h"

namespace faircache::metrics {

// Storage-only fairness degree cost of caching one more chunk on v, given
// the current state: f_v = S(v) / (S_tot(v) − S(v)). Returns +inf for a
// full node or the producer (which must never be selected).
double fairness_degree(const CacheState& state, graph::NodeId v);

// Weighted storage + battery fairness (paper footnote 1). Battery is modeled
// as an abstract budget: each cached chunk is assumed to cost
// `battery_per_chunk` units of the node's battery over its lifetime, so the
// battery term is spent/(budget − spent) in the same shape as Eq. 1.
class FairnessModel {
 public:
  struct Config {
    double storage_weight = 1.0;
    double battery_weight = 0.0;   // 0 disables the battery term (paper core)
    double battery_per_chunk = 1.0;
  };

  FairnessModel() = default;
  explicit FairnessModel(Config config) : config_(config) {}

  // Heterogeneous battery budgets; empty means "no battery modeling".
  void set_battery_budgets(std::vector<double> budgets) {
    battery_budget_ = std::move(budgets);
  }

  const Config& config() const { return config_; }

  double cost(const CacheState& state, graph::NodeId v) const;
  std::vector<double> costs(const CacheState& state) const;

 private:
  Config config_;
  std::vector<double> battery_budget_;
};

}  // namespace faircache::metrics
