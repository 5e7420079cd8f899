#include "sim/serving.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/approx.h"
#include "core/validate.h"
#include "graph/shortest_paths.h"
#include "metrics/fairness_stats.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace faircache::sim {

namespace {

using graph::NodeId;
using metrics::ChunkId;

util::Status validate_config(const core::FairCachingProblem& problem,
                             const ServingConfig& config) {
  if (util::Status status = core::validate_problem(problem); !status.ok()) {
    return status;
  }
  if (problem.num_chunks < 1) {
    return util::Status::invalid_input("serving needs a chunk catalog");
  }
  if (problem.network->num_nodes() < 2) {
    return util::Status::invalid_input(
        "serving needs at least one consumer besides the producer");
  }
  if (config.requests < 1) {
    return util::Status::invalid_input("serving needs a positive trace");
  }
  if (config.samples < 1) {
    return util::Status::invalid_input("serving needs at least one sample");
  }
  if (config.zipf_exponent < 0.0) {
    return util::Status::invalid_input("negative Zipf exponent");
  }
  if (config.min_activity < 0.0 ||
      config.min_activity > config.max_activity ||
      config.max_activity <= 0.0) {
    return util::Status::invalid_input("activity range invalid");
  }
  if (config.drift_every < 0 || config.reopt_every < 0 ||
      config.adapt_every < 0) {
    return util::Status::invalid_input("negative serving cadence");
  }
  return util::Status();  // OK
}

// The drifting Zipf demand: fixed per-node activities (producer 0), a rank
// permutation reshuffled on every drift event, and a TraceSampler rebuilt
// from the resulting demand matrix.
class DriftingDemand {
 public:
  DriftingDemand(const core::FairCachingProblem& problem,
                 const ServingConfig& config, util::Rng& rng)
      : zipf_(problem.num_chunks, config.zipf_exponent),
        num_chunks_(problem.num_chunks) {
    const int n = problem.network->num_nodes();
    activity_.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      const double a = rng.uniform(config.min_activity, config.max_activity);
      activity_[static_cast<std::size_t>(v)] = v == problem.producer ? 0 : a;
    }
    rank_.resize(static_cast<std::size_t>(num_chunks_));
    for (int c = 0; c < num_chunks_; ++c) {
      rank_[static_cast<std::size_t>(c)] = c;
    }
    rebuild();
  }

  void drift(util::Rng& rng) {
    rng.shuffle(rank_);
    rebuild();
  }

  Request draw(util::Rng& rng) const { return sampler_->draw(rng); }

 private:
  void rebuild() {
    DemandMatrix demand(
        static_cast<std::size_t>(num_chunks_),
        std::vector<double>(activity_.size(), 0.0));
    for (int c = 0; c < num_chunks_; ++c) {
      const double pop = zipf_.pmf(rank_[static_cast<std::size_t>(c)]) *
                         static_cast<double>(num_chunks_);
      for (std::size_t v = 0; v < activity_.size(); ++v) {
        demand[static_cast<std::size_t>(c)][v] = activity_[v] * pop;
      }
    }
    sampler_.emplace(demand);
  }

  ZipfDistribution zipf_;
  int num_chunks_;
  std::vector<double> activity_;
  std::vector<int> rank_;
  std::optional<TraceSampler> sampler_;
};

// Cheapest-source decision against an external policy's placement,
// mirroring OnlineFairCaching::fetch over the shared query engine.
core::FetchDecision fetch_external(core::ChunkInstanceEngine& engine,
                                   const metrics::CacheState& state,
                                   const Request& request) {
  core::FetchDecision decision;
  if (request.node == state.producer() ||
      state.holds(request.node, request.chunk)) {
    decision.source = request.node;
    decision.local = true;
    decision.from_producer = request.node == state.producer();
    return decision;
  }
  for (NodeId i : state.holders(request.chunk)) {
    const double c = engine.query_cost(i, request.node);
    if (decision.source == graph::kInvalidNode || c < decision.cost) {
      decision.source = i;
      decision.cost = c;
    }
  }
  const double producer_cost =
      engine.query_cost(state.producer(), request.node);
  if (decision.source == graph::kInvalidNode ||
      producer_cost < decision.cost) {
    decision.source = state.producer();
    decision.cost = producer_cost;
  }
  decision.from_producer = decision.source == state.producer();
  return decision;
}

}  // namespace

ServingEngine::ServingEngine(const core::FairCachingProblem& problem,
                             ServingConfig config)
    : problem_(&problem), config_(std::move(config)) {}

util::Result<ServingResult> ServingEngine::run(ServingPolicy* policy) {
  if (util::Status status = validate_config(*problem_, config_);
      !status.ok()) {
    return status;
  }
  util::Rng rng(config_.seed);
  DriftingDemand demand(*problem_, config_, rng);

  core::OnlineFairCaching online(*problem_, config_.online);
  core::ChunkInstanceEngine query_engine(*problem_,
                                         config_.online.approx.instance);
  std::vector<char> published(
      static_cast<std::size_t>(problem_->num_chunks), 0);
  bool external_dirty = true;

  ServingResult result;
  result.policy = policy != nullptr ? policy->name() : "online-confl";
  // With samples ≤ requests the window boundaries k·requests/samples are
  // strictly increasing, so every window is non-empty and reachable.
  const int samples = static_cast<int>(
      std::min<long>(config_.samples, config_.requests));
  result.series.reserve(static_cast<std::size_t>(samples));
  ServingSample window;

  const auto current_state = [&]() -> const metrics::CacheState& {
    return policy != nullptr ? policy->state() : online.state();
  };

  util::Stopwatch timer;
  int next_sample = 0;
  long next_boundary = config_.requests * 1 / samples;
  for (long r = 0; r < config_.requests; ++r) {
    if (config_.drift_every > 0 && r > 0 && r % config_.drift_every == 0) {
      demand.drift(rng);
      ++result.totals.drift_events;
    }
    if (policy == nullptr && config_.reopt_every > 0 && r > 0 &&
        r % config_.reopt_every == 0) {
      core::ApproxFairCaching algorithm(config_.online.approx);
      core::SolveReport report;
      util::Result<core::FairCachingResult> solved = algorithm.solve(
          *problem_, util::RunBudget::work_units(config_.reopt_work_cap),
          &report);
      if (!solved.ok()) return solved.status();
      if (util::Status status =
              online.adopt_placement(solved.value().state);
          !status.ok()) {
        return status;
      }
      std::fill(published.begin(), published.end(), 1);
      ++result.totals.reopt_ticks;
      result.totals.degraded_chunks +=
          static_cast<int>(report.degraded_chunks.size());
    }
    if (policy != nullptr && config_.adapt_every > 0 && r > 0 &&
        r % config_.adapt_every == 0) {
      if (policy->end_period()) external_dirty = true;
    }

    const Request request = demand.draw(rng);
    core::FetchDecision decision;
    if (policy == nullptr) {
      if (published[static_cast<std::size_t>(request.chunk)] == 0) {
        util::Result<core::OnlineStepResult> step =
            online.try_insert_chunk(request.chunk);
        if (!step.ok()) return step.status();
        published[static_cast<std::size_t>(request.chunk)] = 1;
        ++result.totals.inserts;
      }
      decision = online.fetch(request.node, request.chunk);
    } else {
      if (policy->observe(request)) external_dirty = true;
      if (external_dirty) {
        if (util::Status status = query_engine.sync(policy->state());
            !status.ok()) {
          return status;
        }
        external_dirty = false;
      }
      decision = fetch_external(query_engine, policy->state(), request);
    }

    if (decision.local) {
      ++window.window_local;
    } else if (!decision.from_producer) {
      ++window.window_relay;
    } else {
      ++window.window_producer;
    }
    window.window_cost += decision.cost;

    if (r + 1 == next_boundary) {
      window.request_end = r + 1;
      const std::vector<int> counts = current_state().stored_counts();
      window.jain = metrics::jains_index(counts);
      window.gini = metrics::gini_coefficient(counts);
      window.total_stored = current_state().total_stored();
      result.totals.hits_local += window.window_local;
      result.totals.hits_relay += window.window_relay;
      result.totals.producer_fetches += window.window_producer;
      result.totals.total_cost += window.window_cost;
      result.series.push_back(window);
      window = ServingSample{};
      ++next_sample;
      next_boundary =
          config_.requests * static_cast<long>(next_sample + 1) / samples;
    }
  }
  result.elapsed_seconds = timer.elapsed_seconds();
  result.requests_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(config_.requests) / result.elapsed_seconds
          : 0.0;

  result.totals.requests = config_.requests;
  result.totals.evictions = online.total_evictions();
  result.state = current_state();
  result.contention_mode_used = policy == nullptr
                                    ? online.contention_mode_used()
                                    : query_engine.mode_used();
  return result;
}

std::uint64_t serving_result_hash(const ServingResult& result) {
  util::Fnv1a h;
  h.bytes(result.policy.data(), result.policy.size());
  h.value(result.totals.requests);
  h.value(result.totals.hits_local);
  h.value(result.totals.hits_relay);
  h.value(result.totals.producer_fetches);
  h.value(result.totals.inserts);
  h.value(result.totals.evictions);
  h.value(result.totals.reopt_ticks);
  h.value(result.totals.degraded_chunks);
  h.value(result.totals.drift_events);
  h.value(result.totals.total_cost);
  for (const ServingSample& s : result.series) {
    h.value(s.request_end);
    h.value(s.window_local);
    h.value(s.window_relay);
    h.value(s.window_producer);
    h.value(s.window_cost);
    h.value(s.jain);
    h.value(s.gini);
    h.value(s.total_stored);
  }
  for (NodeId v = 0; v < result.state.num_nodes(); ++v) {
    h.value(v);
    for (ChunkId c : result.state.chunks_on(v)) h.value(c);
  }
  h.value(static_cast<int>(result.contention_mode_used));
  return h.digest();
}

}  // namespace faircache::sim
