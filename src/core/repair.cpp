#include "core/repair.h"

#include <memory>
#include <utility>

#include "core/instance_builder.h"
#include "core/rehost.h"
#include "core/validate.h"
#include "graph/shortest_paths.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace faircache::core {

namespace {

using graph::NodeId;
using metrics::ChunkId;

bool is_alive(const std::vector<char>& alive, NodeId v) {
  return alive[static_cast<std::size_t>(v)] != 0;
}

}  // namespace

AliveComponent induce_alive_component(const graph::Graph& snapshot,
                                      const std::vector<char>& alive,
                                      const metrics::CacheState& state) {
  FAIRCACHE_CHECK(snapshot.num_nodes() == state.num_nodes(),
                  "snapshot / placement size mismatch");
  FAIRCACHE_CHECK(static_cast<int>(alive.size()) == snapshot.num_nodes(),
                  "liveness mask size mismatch");
  const NodeId producer = state.producer();
  FAIRCACHE_CHECK(producer >= 0 && is_alive(alive, producer),
                  "producer must be alive to induce its component");

  const std::vector<int> dist =
      graph::alive_multi_bfs(snapshot, {producer}, &alive);
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
    if (dist[static_cast<std::size_t>(v)] != graph::kUnreachable) {
      keep.push_back(v);
    }
  }

  AliveComponent component;
  component.sub = graph::induced_subgraph(snapshot, keep);
  std::vector<int> capacities;
  capacities.reserve(keep.size());
  for (NodeId v : keep) capacities.push_back(state.capacity(v));
  component.state = metrics::CacheState(
      std::move(capacities),
      component.sub.to_new[static_cast<std::size_t>(producer)]);
  for (NodeId v : keep) {
    const NodeId nv = component.sub.to_new[static_cast<std::size_t>(v)];
    for (ChunkId c : state.chunks_on(v)) component.state.add(nv, c);
  }
  return component;
}

util::Result<RepairReport> PlacementRepairEngine::repair(
    const graph::Graph& snapshot, const std::vector<char>& alive,
    int num_chunks, metrics::CacheState& state,
    const util::RunBudget& budget) {
  using util::Status;
  RepairReport report;
  util::Stopwatch clock;

  const int n = snapshot.num_nodes();
  if (state.num_nodes() != n) {
    return Status::invalid_input("snapshot / placement size mismatch");
  }
  if (static_cast<int>(alive.size()) != n) {
    return Status::invalid_input("liveness mask size mismatch");
  }
  if (num_chunks < 0) {
    return Status::invalid_input("negative chunk count");
  }
  const NodeId producer = state.producer();
  if (producer < 0 || producer >= n) {
    return Status::invalid_input("placement has no valid producer");
  }
  if (options_.approx.instance.guard.enabled) {
    // Repair mutates the placement in place; refuse to "heal" on top of a
    // structurally corrupted state (docs/ROBUSTNESS.md, "Integrity
    // guard") — the caller must rebuild it instead.
    if (Status status = state.verify_integrity(); !status.ok()) {
      return status;
    }
  }
  if (!is_alive(alive, producer)) {
    return Status::invalid_input(
        "producer is dead; the data source cannot be repaired around");
  }

  // Charges deterministic work at sequential points only, so a pure
  // work-unit budget truncates at the same program point regardless of
  // thread count or machine load.
  auto charge = [&](std::uint64_t units) {
    report.work_units += units;
    budget.charge(units);
  };

  // --- Phase 0: detection + eviction (never budget-gated — a dead holder
  // is a validity violation, not an optimization). ---
  util::Stopwatch phase;
  std::vector<int> lost(static_cast<std::size_t>(num_chunks), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (is_alive(alive, v)) continue;
    const std::vector<ChunkId> held = state.chunks_on(v);
    for (ChunkId c : held) {
      state.remove(v, c);
      ++lost[static_cast<std::size_t>(c)];
      ++report.replicas_lost;
    }
  }
  std::vector<ChunkId> affected;
  for (ChunkId c = 0; c < num_chunks; ++c) {
    if (lost[static_cast<std::size_t>(c)] > 0) affected.push_back(c);
  }
  report.chunks_affected = static_cast<int>(affected.size());

  // Disconnected-demand scan: (alive node, chunk) pairs whose component
  // holds no copy at all. These cannot be repaired — a new replica has to
  // be fetched from an existing one — so they are reported, not retried.
  for (ChunkId c = 0; c < num_chunks; ++c) {
    std::vector<NodeId> sources = state.holders(c);
    sources.push_back(producer);
    const std::vector<int> dist =
        graph::alive_multi_bfs(snapshot, sources, &alive);
    for (NodeId j = 0; j < n; ++j) {
      if (j == producer || !is_alive(alive, j)) continue;
      if (dist[static_cast<std::size_t>(j)] == graph::kUnreachable) {
        ++report.unservable_pairs;
      }
    }
  }
  charge(static_cast<std::uint64_t>(num_chunks));
  report.detect_seconds = phase.elapsed_seconds();

  auto finish = [&](Status stop, int chunks_left) {
    report.stop_reason = std::move(stop);
    report.chunks_unrepaired += chunks_left;
    report.total_seconds = clock.elapsed_seconds();
    return report;
  };

  if (affected.empty() || options_.level == RepairLevel::kEvictOnly) {
    const int left =
        options_.level == RepairLevel::kEvictOnly ? report.chunks_affected
                                                  : 0;
    return finish(Status(), left);
  }
  if (budget.expired()) {
    return finish(budget.status("repair detection"),
                  report.chunks_affected);
  }

  // --- Phase 1: local re-hosting — per affected chunk, the greedy re-host
  // move (core/rehost.h) over BFS balls of the alive topology, capped at
  // the replicas the chunk lost. The set-up charge covers the adjacency
  // build; a pass the budget cuts short keeps the picks it already made. ---
  phase.reset();
  charge(static_cast<std::uint64_t>(n));
  if (budget.expired()) {
    return finish(budget.status("repair local pass"),
                  report.chunks_affected);
  }
  const graph::CsrAdjacency adj = graph::build_csr(snapshot);

  std::vector<ChunkId> escalate;
  bool truncated = false;
  std::size_t next_chunk = 0;
  for (; next_chunk < affected.size(); ++next_chunk) {
    const ChunkId c = affected[next_chunk];
    if (budget.expired()) {
      truncated = true;
      break;
    }
    const int lost_c = lost[static_cast<std::size_t>(c)];
    const RehostResult rehost = greedy_rehost(
        adj, state, c, &alive, /*radius=*/0, lost_c, budget);
    report.work_units += rehost.work_units;
    for (NodeId v : rehost.chosen) state.add(v, c);
    report.replicas_restored += static_cast<int>(rehost.chosen.size());
    if (rehost.truncated) {
      truncated = true;
      break;
    }
    if (static_cast<int>(rehost.chosen.size()) >= lost_c) {
      ++report.chunks_local;
    } else if (options_.level == RepairLevel::kLocalThenResolve) {
      escalate.push_back(c);
    } else {
      ++report.chunks_unrepaired;
    }
  }
  report.local_seconds = phase.elapsed_seconds();
  if (truncated) {
    return finish(budget.status("repair local pass"),
                  static_cast<int>(affected.size() - next_chunk));
  }

  // --- Phase 2: escalation — per-chunk ConFL re-solves over the
  // producer's alive component, applied transactionally. The snapshot and
  // the liveness mask are fixed for the pass, so the first escalation
  // induces the component and pins the engine's BFS trees once; every
  // later one delta-patches them. `component.state` mirrors `state` on the
  // component's nodes throughout. ---
  phase.reset();
  AliveComponent component;
  FairCachingProblem sub_problem;
  std::unique_ptr<ChunkInstanceEngine> engine;
  auto stop_escalation = [&](Status stop, int chunks_left) {
    if (engine != nullptr) report.guard.merge(engine->guard_report());
    report.resolve_seconds = phase.elapsed_seconds();
    return finish(std::move(stop), chunks_left);
  };
  for (std::size_t e = 0; e < escalate.size(); ++e) {
    const ChunkId c = escalate[e];
    charge(static_cast<std::uint64_t>(n));
    if (budget.expired()) {
      return stop_escalation(budget.status("repair escalation"),
                             static_cast<int>(escalate.size() - e));
    }
    if (engine == nullptr) {
      component = induce_alive_component(snapshot, alive, state);
      sub_problem.network = &component.sub.graph;
      sub_problem.producer = component.state.producer();
      sub_problem.num_chunks = num_chunks;
      sub_problem.capacities.reserve(
          static_cast<std::size_t>(component.state.num_nodes()));
      for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
        sub_problem.capacities.push_back(component.state.capacity(v));
      }
      InstanceOptions instance_options = options_.approx.instance;
      instance_options.demand = nullptr;  // demand rows index original ids
      engine =
          std::make_unique<ChunkInstanceEngine>(sub_problem, instance_options);
    }
    // Re-solve chunk c from scratch: the solver sees the component without
    // any copy of c (fairness costs still reflect every other chunk).
    metrics::CacheState without_c = component.state;
    for (NodeId v = 0; v < without_c.num_nodes(); ++v) {
      if (without_c.holds(v, c)) without_c.remove(v, c);
    }
    util::Result<confl::ConflInstance> instance = engine->build(without_c, c);
    if (!instance.ok()) return instance.status();
    util::Result<confl::ConflSolution> solution =
        confl::try_solve_confl(instance.value(), options_.approx.confl,
                               budget);
    // The solver is done with the cost buffers: hand them back so the next
    // escalation's build patches them in place.
    engine->reclaim(std::move(instance).value());
    if (!solution.ok()) {
      if (budget.expired()) {
        // Mid-solve expiry: the chunk keeps its (partial) local repair —
        // still a valid placement — and is reported unrepaired.
        return stop_escalation(budget.status("repair escalation"),
                               static_cast<int>(escalate.size() - e));
      }
      // Solver failure on this component (e.g. dual growth hit its round
      // cap): the chunk keeps its partial local repair and stays counted
      // as unrepaired; later chunks still get their chance.
      ++report.chunks_unrepaired;
      continue;
    }
    // Transactional swap: drop the component's old copies of c, then place
    // the re-solved set (both loops preserve validity step by step).
    const int before = static_cast<int>(state.holders(c).size());
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.holds(orig, c)) state.remove(orig, c);
    }
    component.state = std::move(without_c);
    for (NodeId v : solution.value().open_facilities) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.can_cache(orig, c)) {
        state.add(orig, c);
        component.state.add(v, c);
      }
    }
    report.replicas_restored +=
        static_cast<int>(state.holders(c).size()) - before;
    ++report.chunks_resolved;
  }
  return stop_escalation(Status(), 0);
}

}  // namespace faircache::core
