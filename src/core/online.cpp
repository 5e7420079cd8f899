#include "core/online.h"

#include <algorithm>
#include <utility>

#include "confl/confl.h"
#include "graph/shortest_paths.h"

namespace faircache::core {

using graph::NodeId;

// Added to a full node's fairness cost under kEvictOldest: the price of
// evicting its oldest chunk. The fairness term itself is computed as if one
// slot were free.
constexpr double kEvictionPenalty = 1.0;

OnlineFairCaching::OnlineFairCaching(const FairCachingProblem& problem,
                                     OnlineConfig config)
    : problem_(problem),
      config_(std::move(config)),
      state_(problem.make_initial_state()),
      engine_(problem_, config_.approx.instance),
      ages_(static_cast<std::size_t>(state_.num_nodes())) {
  FAIRCACHE_CHECK(problem_.network != nullptr, "problem needs a network");
}

util::Result<OnlineStepResult> OnlineFairCaching::try_insert_chunk(
    metrics::ChunkId chunk) {
  if (chunk < 0) {
    return util::Status::invalid_input("negative chunk id");
  }
  if (published_.count(chunk) != 0) {
    return util::Status::invalid_input(
        "chunk id is already published; retire it before re-inserting");
  }

  util::Result<confl::ConflInstance> built = engine_.build(state_, chunk);
  if (!built.ok()) return built.status();
  confl::ConflInstance instance = std::move(built).value();

  // Replacement: full nodes become eligible at a penalty, priced as if one
  // slot were already free.
  if (config_.replacement == ReplacementPolicy::kEvictOldest) {
    for (NodeId v = 0; v < state_.num_nodes(); ++v) {
      if (v == state_.producer() || !state_.full(v) ||
          state_.capacity(v) == 0 || state_.holds(v, chunk)) {
        continue;
      }
      const double used = static_cast<double>(state_.used(v) - 1);
      const double cap = static_cast<double>(state_.capacity(v));
      instance.facility_cost[static_cast<std::size_t>(v)] =
          kEvictionPenalty + used / (cap - used);
    }
  }

  util::Result<confl::ConflSolution> solved =
      confl::try_solve_confl(instance, config_.approx.confl);
  engine_.reclaim(std::move(instance));
  // A solver failure (e.g. dual growth hit its round cap) leaves the
  // placement, ages and published ids untouched.
  if (!solved.ok()) return solved.status();

  OnlineStepResult step;
  step.chunk = chunk;
  for (NodeId v : solved.value().open_facilities) {
    auto& age_list = ages_[static_cast<std::size_t>(v)];
    if (state_.full(v)) {
      if (config_.replacement != ReplacementPolicy::kEvictOldest ||
          state_.capacity(v) == 0) {
        continue;  // defensive: solver should not have opened this node
      }
      // Evict the oldest chunk on v.
      const auto oldest = std::min_element(age_list.begin(), age_list.end());
      FAIRCACHE_DCHECK(oldest != age_list.end());
      state_.remove(v, oldest->second);
      age_list.erase(oldest);
      ++total_evictions_;
      queries_dirty_ = true;
      step.evicted_from.push_back(v);
    }
    if (state_.can_cache(v, chunk)) {
      state_.add(v, chunk);
      age_list.emplace_back(clock_++, chunk);
      queries_dirty_ = true;
      step.cache_nodes.push_back(v);
    }
  }
  published_.insert(chunk);
  return step;
}

void OnlineFairCaching::retire_chunk(metrics::ChunkId chunk) {
  for (NodeId v = 0; v < state_.num_nodes(); ++v) {
    if (v == state_.producer() || !state_.holds(v, chunk)) continue;
    state_.remove(v, chunk);
    queries_dirty_ = true;
    auto& age_list = ages_[static_cast<std::size_t>(v)];
    age_list.erase(std::remove_if(age_list.begin(), age_list.end(),
                                  [&](const auto& entry) {
                                    return entry.second == chunk;
                                  }),
                   age_list.end());
  }
  published_.erase(chunk);
}

util::Status OnlineFairCaching::adopt_placement(
    const metrics::CacheState& state) {
  if (state.num_nodes() != state_.num_nodes()) {
    return util::Status::invalid_input("adopted state size mismatch");
  }
  if (state.producer() != state_.producer()) {
    return util::Status::invalid_input("adopted state producer mismatch");
  }
  for (NodeId v = 0; v < state_.num_nodes(); ++v) {
    if (state.capacity(v) != state_.capacity(v)) {
      return util::Status::invalid_input("adopted state capacity mismatch");
    }
  }
  if (util::Status status = state.verify_integrity(); !status.ok()) {
    return status;
  }
  state_ = state;
  queries_dirty_ = true;
  for (NodeId v = 0; v < state_.num_nodes(); ++v) {
    auto& age_list = ages_[static_cast<std::size_t>(v)];
    age_list.clear();
    for (metrics::ChunkId chunk : state_.chunks_on(v)) {
      age_list.emplace_back(clock_++, chunk);
      published_.insert(chunk);
    }
  }
  return util::Status();  // OK
}

util::Status OnlineFairCaching::sync_queries() {
  if (!queries_dirty_ && engine_.query_ready()) return util::Status();
  util::Status status = engine_.sync(state_);
  if (status.ok()) queries_dirty_ = false;
  return status;
}

double OnlineFairCaching::access_cost(metrics::ChunkId chunk) {
  FAIRCACHE_CHECK(sync_queries().ok(), "engine sync failed");
  std::vector<NodeId> sources = state_.holders(chunk);
  sources.push_back(state_.producer());

  double total = 0.0;
  for (NodeId j = 0; j < state_.num_nodes(); ++j) {
    if (j == state_.producer()) continue;
    double best = graph::kInfCost;
    for (NodeId i : sources) best = std::min(best, engine_.query_cost(i, j));
    total += best;
  }
  return total;
}

FetchDecision cheapest_copy(const ChunkInstanceEngine& engine,
                            const metrics::CacheState& state,
                            NodeId requester, metrics::ChunkId chunk) {
  FetchDecision decision;
  if (requester == state.producer() || state.holds(requester, chunk)) {
    decision.source = requester;
    decision.local = true;
    decision.from_producer = requester == state.producer();
    return decision;
  }
  for (NodeId i : state.holders(chunk)) {
    const double c = engine.query_cost(i, requester);
    if (decision.source == graph::kInvalidNode || c < decision.cost) {
      decision.source = i;
      decision.cost = c;
    }
  }
  const double producer_cost = engine.query_cost(state.producer(), requester);
  if (decision.source == graph::kInvalidNode ||
      producer_cost < decision.cost) {
    decision.source = state.producer();
    decision.cost = producer_cost;
  }
  decision.from_producer = decision.source == state.producer();
  return decision;
}

FetchDecision OnlineFairCaching::fetch(NodeId requester,
                                       metrics::ChunkId chunk) {
  // Local hits never query the engine, so they skip the lazy resync.
  if (requester != state_.producer() && !state_.holds(requester, chunk)) {
    FAIRCACHE_CHECK(sync_queries().ok(), "engine sync failed");
  }
  return cheapest_copy(engine_, state_, requester, chunk);
}

util::Status OnlineFairCaching::verify_consistency() const {
  if (util::Status status = state_.verify_integrity(); !status.ok()) {
    return status;
  }
  for (NodeId v = 0; v < state_.num_nodes(); ++v) {
    const auto& age_list = ages_[static_cast<std::size_t>(v)];
    if (v == state_.producer() && !age_list.empty()) {
      return util::Status::invalid_input("producer has age entries");
    }
    std::vector<metrics::ChunkId> aged;
    aged.reserve(age_list.size());
    for (const auto& [age, chunk] : age_list) {
      if (age < 0 || age >= clock_) {
        return util::Status::invalid_input("age stamp out of range");
      }
      aged.push_back(chunk);
    }
    std::sort(aged.begin(), aged.end());
    if (std::adjacent_find(aged.begin(), aged.end()) != aged.end()) {
      return util::Status::invalid_input("duplicate age entry on a node");
    }
    if (aged != state_.chunks_on(v)) {
      return util::Status::invalid_input(
          "age entries do not match cached chunks");
    }
  }
  return util::Status();  // OK
}

}  // namespace faircache::core
