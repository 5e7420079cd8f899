#include "metrics/fairness.h"

#include <limits>

namespace faircache::metrics {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// used/(total − used) with the Eq.-1 boundary conventions.
double ratio_cost(double used, double total) {
  if (used >= total) return kInf;
  return used / (total - used);
}
}  // namespace

double fairness_degree(const CacheState& state, graph::NodeId v) {
  FAIRCACHE_CHECK(v >= 0 && v < state.num_nodes(), "node out of range");
  if (v == state.producer()) return kInf;
  return ratio_cost(state.used(v), state.capacity(v));
}

double FairnessModel::cost(const CacheState& state, graph::NodeId v) const {
  const double storage = fairness_degree(state, v);
  if (config_.battery_weight == 0.0 || battery_budget_.empty()) {
    return config_.storage_weight * storage;
  }
  FAIRCACHE_CHECK(static_cast<int>(battery_budget_.size()) ==
                      state.num_nodes(),
                  "battery budget size mismatch");
  const double spent =
      config_.battery_per_chunk * static_cast<double>(state.used(v));
  const double battery =
      ratio_cost(spent, battery_budget_[static_cast<std::size_t>(v)]);
  return config_.storage_weight * storage + config_.battery_weight * battery;
}

std::vector<double> FairnessModel::costs(const CacheState& state) const {
  std::vector<double> result(static_cast<std::size_t>(state.num_nodes()));
  for (graph::NodeId v = 0; v < state.num_nodes(); ++v) {
    result[static_cast<std::size_t>(v)] = cost(state, v);
  }
  return result;
}

}  // namespace faircache::metrics
