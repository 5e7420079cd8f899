#include "sim/churn.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "metrics/evaluator.h"
#include "metrics/fairness_stats.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace faircache::sim {

namespace {

using graph::EdgeId;
using graph::NodeId;

enum class NodeState { kAbsent, kAlive, kCrashed, kDeparted };

// Stable event order: by time, plan order within a tick.
std::vector<ChurnEvent> sorted_events(const ChurnPlan& plan) {
  std::vector<ChurnEvent> events = plan.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

const char* event_name(ChurnEventType type) {
  switch (type) {
    case ChurnEventType::kDepart: return "depart";
    case ChurnEventType::kCrash: return "crash";
    case ChurnEventType::kRecover: return "recover";
    case ChurnEventType::kArrive: return "arrive";
    case ChurnEventType::kLinkDown: return "link-down";
    case ChurnEventType::kLinkUp: return "link-up";
  }
  return "?";
}

}  // namespace

util::Status ChurnPlan::validate(const graph::Graph& universe) const {
  using util::Status;
  const int n = universe.num_nodes();
  std::vector<NodeState> state(static_cast<std::size_t>(n),
                               NodeState::kAlive);
  for (NodeId v : initially_absent) {
    if (v < 0 || v >= n) {
      return Status::invalid_input("initially absent node out of range");
    }
    if (state[static_cast<std::size_t>(v)] == NodeState::kAbsent) {
      return Status::invalid_input("node " + std::to_string(v) +
                                   " listed absent twice");
    }
    state[static_cast<std::size_t>(v)] = NodeState::kAbsent;
  }
  std::vector<char> link_up(static_cast<std::size_t>(universe.num_edges()),
                            1);
  for (const auto& [u, v] : initially_down_links) {
    const auto e = universe.find_edge(u, v);
    if (!e.has_value()) {
      return Status::invalid_input("initially down link is not a universe "
                                   "edge");
    }
    if (!link_up[static_cast<std::size_t>(*e)]) {
      return Status::invalid_input("link listed down twice");
    }
    link_up[static_cast<std::size_t>(*e)] = 0;
  }

  for (const ChurnEvent& event : sorted_events(*this)) {
    const std::string label = std::string(event_name(event.type)) +
                              " event at tick " +
                              std::to_string(event.time);
    if (event.time < 0) {
      return Status::invalid_input(label + ": negative time");
    }
    if (event.node < 0 || event.node >= n) {
      return Status::invalid_input(label + ": node out of range");
    }
    const auto vi = static_cast<std::size_t>(event.node);
    switch (event.type) {
      case ChurnEventType::kDepart:
        if (state[vi] == NodeState::kDeparted) {
          return Status::invalid_input(label + ": node already departed");
        }
        if (state[vi] == NodeState::kAbsent) {
          return Status::invalid_input(label + ": node has not arrived");
        }
        state[vi] = NodeState::kDeparted;
        break;
      case ChurnEventType::kCrash:
        if (state[vi] != NodeState::kAlive) {
          return Status::invalid_input(
              label + ": only a running node can crash (overlapping crash "
                      "windows?)");
        }
        state[vi] = NodeState::kCrashed;
        break;
      case ChurnEventType::kRecover:
        if (state[vi] != NodeState::kCrashed) {
          return Status::invalid_input(label +
                                       ": node is not down to recover");
        }
        state[vi] = NodeState::kAlive;
        break;
      case ChurnEventType::kArrive:
        if (state[vi] != NodeState::kAbsent) {
          return Status::invalid_input(
              label + ": arrivals need an initially absent node");
        }
        state[vi] = NodeState::kAlive;
        break;
      case ChurnEventType::kLinkDown:
      case ChurnEventType::kLinkUp: {
        const auto e = universe.find_edge(event.node, event.peer);
        if (!e.has_value()) {
          return Status::invalid_input(label +
                                       ": link is not a universe edge");
        }
        const auto ei = static_cast<std::size_t>(*e);
        const bool down = event.type == ChurnEventType::kLinkDown;
        if (down && !link_up[ei]) {
          return Status::invalid_input(label + ": link already down");
        }
        if (!down && link_up[ei]) {
          return Status::invalid_input(label + ": link already up");
        }
        link_up[ei] = down ? 0 : 1;
        break;
      }
    }
  }
  return Status();
}

ChurnSimulator::ChurnSimulator(const graph::Graph& universe, ChurnPlan plan)
    : universe_(&universe), plan_(std::move(plan)) {
  const util::Status status = plan_.validate(universe);
  if (!status.ok()) {
    util::check_failed("plan.validate(universe).ok()", __FILE__, __LINE__,
                       status.message());
  }
  plan_.events = sorted_events(plan_);
  const auto n = static_cast<std::size_t>(universe.num_nodes());
  alive_.assign(n, 1);
  present_.assign(n, 1);
  for (NodeId v : plan_.initially_absent) {
    alive_[static_cast<std::size_t>(v)] = 0;
    present_[static_cast<std::size_t>(v)] = 0;
  }
  link_up_.assign(static_cast<std::size_t>(universe.num_edges()), 1);
  for (const auto& [u, v] : plan_.initially_down_links) {
    link_up_[static_cast<std::size_t>(*universe.find_edge(u, v))] = 0;
  }
}

TopologyDelta ChurnSimulator::advance() {
  FAIRCACHE_CHECK(!done(), "advance() past the end of the plan");
  TopologyDelta delta;
  time_ = plan_.events[next_event_].time;
  delta.time = time_;
  while (next_event_ < plan_.events.size() &&
         plan_.events[next_event_].time == time_) {
    const ChurnEvent& event = plan_.events[next_event_++];
    const auto vi = static_cast<std::size_t>(event.node);
    switch (event.type) {
      case ChurnEventType::kDepart:
        present_[vi] = 0;
        alive_[vi] = 0;
        delta.departed.push_back(event.node);
        break;
      case ChurnEventType::kCrash:
        alive_[vi] = 0;
        delta.crashed.push_back(event.node);
        break;
      case ChurnEventType::kRecover:
        alive_[vi] = 1;
        delta.recovered.push_back(event.node);
        break;
      case ChurnEventType::kArrive:
        present_[vi] = 1;
        alive_[vi] = 1;
        delta.arrived.push_back(event.node);
        break;
      case ChurnEventType::kLinkDown:
      case ChurnEventType::kLinkUp: {
        const EdgeId e = *universe_->find_edge(event.node, event.peer);
        const bool down = event.type == ChurnEventType::kLinkDown;
        link_up_[static_cast<std::size_t>(e)] = down ? 0 : 1;
        auto& list = down ? delta.links_down : delta.links_up;
        list.emplace_back(event.node, event.peer);
        break;
      }
    }
  }
  return delta;
}

graph::Graph ChurnSimulator::snapshot() const {
  graph::Graph g(universe_->num_nodes());
  for (EdgeId e = 0; e < universe_->num_edges(); ++e) {
    if (!link_up_[static_cast<std::size_t>(e)]) continue;
    const graph::Edge& edge = universe_->edge(e);
    if (alive_[static_cast<std::size_t>(edge.u)] &&
        alive_[static_cast<std::size_t>(edge.v)]) {
      g.add_edge(edge.u, edge.v);
    }
  }
  return g;
}

ChurnPlan make_departure_waves(int num_nodes, NodeId producer, int waves,
                               int per_wave, int period,
                               std::uint64_t seed) {
  FAIRCACHE_CHECK(num_nodes > 0, "need a positive node count");
  FAIRCACHE_CHECK(producer >= 0 && producer < num_nodes,
                  "producer out of range");
  FAIRCACHE_CHECK(waves >= 0 && per_wave >= 0, "negative wave shape");
  FAIRCACHE_CHECK(period >= 1, "waves need a positive period");
  ChurnPlan plan;
  plan.seed = seed;
  util::Rng rng(seed);
  std::vector<NodeId> remaining;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (v != producer) remaining.push_back(v);
  }
  for (int w = 1; w <= waves; ++w) {
    for (int k = 0; k < per_wave && !remaining.empty(); ++k) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long>(remaining.size()) - 1));
      plan.events.push_back({ChurnEventType::kDepart, w * period,
                             remaining[idx], graph::kInvalidNode});
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  return plan;
}

MobilityChurn churn_from_mobility(RandomWaypointModel& model, int ticks,
                                  double dt) {
  FAIRCACHE_CHECK(ticks >= 0, "negative tick count");
  FAIRCACHE_CHECK(dt > 0, "time step must be positive");
  std::vector<graph::Graph> snapshots;
  snapshots.reserve(static_cast<std::size_t>(ticks) + 1);
  snapshots.push_back(model.topology());
  for (int t = 0; t < ticks; ++t) {
    model.step(dt);
    snapshots.push_back(model.topology());
  }

  MobilityChurn churn;
  // Universe = union of every link ever up, added in sorted (u, v) order
  // so universe edge ids are deterministic.
  std::vector<std::pair<NodeId, NodeId>> union_edges;
  for (const graph::Graph& snap : snapshots) {
    for (const graph::Edge& e : snap.edges()) {
      union_edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
    }
  }
  std::sort(union_edges.begin(), union_edges.end());
  union_edges.erase(std::unique(union_edges.begin(), union_edges.end()),
                    union_edges.end());
  churn.universe = graph::Graph(snapshots.front().num_nodes());
  for (const auto& [u, v] : union_edges) churn.universe.add_edge(u, v);

  churn.plan.seed = 0;  // pure replay, no randomness left
  for (const auto& [u, v] : union_edges) {
    if (!snapshots.front().has_edge(u, v)) {
      churn.plan.initially_down_links.emplace_back(u, v);
    }
  }
  for (std::size_t t = 1; t < snapshots.size(); ++t) {
    for (const auto& [u, v] : union_edges) {
      const bool was_up = snapshots[t - 1].has_edge(u, v);
      const bool is_up = snapshots[t].has_edge(u, v);
      if (was_up == is_up) continue;
      churn.plan.events.push_back({is_up ? ChurnEventType::kLinkUp
                                         : ChurnEventType::kLinkDown,
                                   static_cast<int>(t), u, v});
    }
  }
  return churn;
}

FaultPlan churn_to_fault_plan(const ChurnPlan& plan, int rounds_per_tick) {
  FAIRCACHE_CHECK(rounds_per_tick >= 1,
                  "need at least one bus round per tick");
  FaultPlan faults;
  faults.seed = plan.seed;

  const std::vector<ChurnEvent> events = sorted_events(plan);
  // Nodes: kCrash (and initial absence) opens a down window, kRecover /
  // kArrive closes it, kDepart makes it permanent. take_open() pops a
  // node's open window start, if any.
  std::vector<std::pair<NodeId, int>> open;  // (node, down-since round)
  auto take_open = [&](NodeId node) -> std::pair<bool, int> {
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (open[i].first != node) continue;
      const int since = open[i].second;
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      return {true, since};
    }
    return {false, 0};
  };
  for (NodeId v : plan.initially_absent) open.emplace_back(v, 0);
  for (const ChurnEvent& event : events) {
    const int round = event.time * rounds_per_tick;
    switch (event.type) {
      case ChurnEventType::kDepart: {
        // A crashed node that departs extends its open window forever.
        const auto [was_down, since] = take_open(event.node);
        faults.crashes.push_back({event.node, was_down ? since : round, -1});
        break;
      }
      case ChurnEventType::kCrash:
        open.emplace_back(event.node, round);
        break;
      case ChurnEventType::kRecover:
      case ChurnEventType::kArrive: {
        const auto [was_down, since] = take_open(event.node);
        // Zero-length windows (arrival at tick 0) record nothing.
        if (was_down && round > since) {
          faults.crashes.push_back({event.node, since, round});
        }
        break;
      }
      case ChurnEventType::kLinkDown:
      case ChurnEventType::kLinkUp:
        break;  // handled below
    }
  }
  for (const auto& [node, down_since] : open) {
    faults.crashes.push_back({node, down_since, -1});
  }

  // Links: same windowing over (u, v) pairs.
  std::vector<std::pair<std::pair<NodeId, NodeId>, int>> open_links;
  auto link_key = [](NodeId u, NodeId v) {
    return std::make_pair(std::min(u, v), std::max(u, v));
  };
  for (const auto& [u, v] : plan.initially_down_links) {
    open_links.emplace_back(link_key(u, v), 0);
  }
  for (const ChurnEvent& event : events) {
    if (event.type != ChurnEventType::kLinkDown &&
        event.type != ChurnEventType::kLinkUp) {
      continue;
    }
    const int round = event.time * rounds_per_tick;
    const auto key = link_key(event.node, event.peer);
    if (event.type == ChurnEventType::kLinkDown) {
      open_links.emplace_back(key, round);
      continue;
    }
    for (std::size_t i = 0; i < open_links.size(); ++i) {
      if (open_links[i].first != key) continue;
      if (round > open_links[i].second) {
        faults.link_faults.push_back(
            {key.first, key.second, open_links[i].second, round});
      }
      open_links.erase(open_links.begin() +
                       static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  for (const auto& [key, down_round] : open_links) {
    faults.link_faults.push_back({key.first, key.second, down_round, -1});
  }
  return faults;
}

std::uint64_t ChurnTimeline::hash() const {
  util::Fnv1a h;
  for (const ChurnSample& s : samples_) {
    h.value(s.time);
    h.value(static_cast<int>(s.phase));
    h.value(s.alive_nodes);
    h.value(s.component_nodes);
    h.value(s.total_stored);
    h.value(s.reachable_fraction);
    h.value(s.mean_hops);
    h.value(s.unreachable_pairs);
    h.value(s.component_cost);
    h.value(s.jain);
    h.value(s.gini);
  }
  return h.digest();
}

namespace {

ChurnSample measure_sample(const graph::Graph& snapshot,
                           const std::vector<char>& alive,
                           const metrics::CacheState& state, int num_chunks,
                           int time, ChurnPhase phase, int eval_threads) {
  ChurnSample sample;
  sample.time = time;
  sample.phase = phase;
  for (char a : alive) sample.alive_nodes += a ? 1 : 0;
  sample.total_stored = state.total_stored();

  const PlacementRobustness robustness =
      evaluate_robustness(snapshot, state, num_chunks, &alive);
  sample.reachable_fraction = robustness.reachable_fraction;
  sample.mean_hops = robustness.mean_hops;
  sample.unreachable_pairs = robustness.pairs - robustness.reachable_pairs;

  std::vector<int> counts;
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    if (v == state.producer() || !alive[static_cast<std::size_t>(v)]) {
      continue;
    }
    counts.push_back(state.used(v));
  }
  sample.jain = counts.empty() ? 1.0 : metrics::jains_index(counts);
  sample.gini = counts.empty() ? 0.0 : metrics::gini_coefficient(counts);

  const NodeId producer = state.producer();
  if (producer >= 0 && producer < state.num_nodes() &&
      alive[static_cast<std::size_t>(producer)]) {
    const core::AliveComponent component =
        core::induce_alive_component(snapshot, alive, state);
    sample.component_nodes = component.sub.graph.num_nodes();
    metrics::EvaluatorOptions options;
    options.num_chunks = num_chunks;
    options.threads = eval_threads;
    sample.component_cost =
        metrics::evaluate_placement(component.sub.graph, component.state,
                                    options)
            .total();
  }
  return sample;
}

}  // namespace

util::Result<ChurnRunResult> run_churn(const core::FairCachingProblem& problem,
                                       const metrics::CacheState& initial,
                                       const ChurnPlan& plan,
                                       const ChurnRunConfig& config) {
  using util::Status;
  if (problem.network == nullptr) {
    return Status::invalid_input("churn run needs a universe network");
  }
  const graph::Graph& universe = *problem.network;
  if (initial.num_nodes() != universe.num_nodes()) {
    return Status::invalid_input("initial placement sized for a different "
                                 "network");
  }
  const Status plan_status = plan.validate(universe);
  if (!plan_status.ok()) return plan_status;

  ChurnRunResult result;
  result.state = initial;
  ChurnSimulator sim(universe, plan);
  core::PlacementRepairEngine engine(config.repair);

  result.timeline.record(measure_sample(sim.snapshot(), sim.alive(),
                                        result.state, problem.num_chunks, -1,
                                        ChurnPhase::kInitial,
                                        config.eval_threads));

  while (!sim.done()) {
    const TopologyDelta delta = sim.advance();
    const graph::Graph snapshot = sim.snapshot();
    const ChurnSample post_event = measure_sample(
        snapshot, sim.alive(), result.state, problem.num_chunks, delta.time,
        ChurnPhase::kPostEvent, config.eval_threads);
    result.timeline.record(post_event);

    core::RepairReport report;
    const NodeId producer = result.state.producer();
    const bool producer_alive =
        producer >= 0 && producer < universe.num_nodes() &&
        sim.alive()[static_cast<std::size_t>(producer)];
    if (config.repair_enabled && producer_alive) {
      const util::RunBudget budget =
          util::RunBudget::work_units(config.repair_work_cap, config.cancel);
      util::Result<core::RepairReport> repaired = engine.repair(
          snapshot, sim.alive(), problem.num_chunks, result.state, budget);
      if (!repaired.ok()) return repaired.status();
      report = repaired.value();
      if (!report.stop_reason.ok()) result.last_stop = report.stop_reason;
    } else if (config.repair_enabled) {
      // Producer down: no repair target, but holder-aliveness is still a
      // validity requirement, so dead holders are evicted by hand.
      for (NodeId v = 0; v < result.state.num_nodes(); ++v) {
        if (sim.alive()[static_cast<std::size_t>(v)]) continue;
        const std::vector<metrics::ChunkId> held =
            result.state.chunks_on(v);
        for (metrics::ChunkId c : held) {
          result.state.remove(v, c);
          ++report.replicas_lost;
        }
      }
    }

    const ChurnSample post_repair = measure_sample(
        snapshot, sim.alive(), result.state, problem.num_chunks, delta.time,
        ChurnPhase::kPostRepair, config.eval_threads);
    result.timeline.record(post_repair);
    report.cost_before = post_event.component_cost;
    report.cost_after = post_repair.component_cost;
    result.reports.push_back(std::move(report));
  }

  result.alive = sim.alive();
  result.present = sim.present();
  return result;
}

std::uint64_t churn_result_hash(const ChurnRunResult& result) {
  util::Fnv1a h(result.timeline.hash());
  for (const core::RepairReport& r : result.reports) {
    h.value(static_cast<int>(r.stop_reason.code()));
    h.value(r.replicas_lost);
    h.value(r.replicas_restored);
    h.value(r.chunks_affected);
    h.value(r.chunks_local);
    h.value(r.chunks_resolved);
    h.value(r.chunks_unrepaired);
    h.value(r.unservable_pairs);
    h.value(r.work_units);
    h.value(r.cost_before);
    h.value(r.cost_after);
  }
  for (NodeId v = 0; v < result.state.num_nodes(); ++v) {
    h.value(v);
    for (metrics::ChunkId c : result.state.chunks_on(v)) h.value(c);
  }
  return h.digest();
}

}  // namespace faircache::sim
