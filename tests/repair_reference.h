#pragma once

// An unbudgeted placement repair whose escalation builds every instance
// from scratch, the reference that core::PlacementRepairEngine::repair
// must reproduce bit for bit under an unlimited budget: eviction of dead
// holders, the greedy local pass (core::greedy_rehost, capped at the
// replicas each chunk lost), then per escalated chunk a freshly induced
// alive component and a fresh instance — try_build_chunk_instance for
// dense rows, a one-shot ChunkInstanceEngine for kSparse rows (the only
// builder of CSR rows) — one ConFL solve and the transactional swap.
// Header-only and free of gtest, so the fuzz targets can use it too.

#include <cstddef>
#include <vector>

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "core/rehost.h"
#include "core/repair.h"
#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "util/status.h"

namespace faircache::testutil {

inline util::Result<confl::ConflInstance> fresh_escalation_instance(
    const core::FairCachingProblem& problem, const metrics::CacheState& state,
    const core::InstanceOptions& options, metrics::ChunkId chunk) {
  if (options.contention_mode == core::ContentionMode::kSparse) {
    core::ChunkInstanceEngine engine(problem, options);
    return engine.build(state, chunk);
  }
  return core::try_build_chunk_instance(problem, state, options, chunk);
}

// Repairs `state` in place; the options' level and approx config apply as
// in the engine. The producer must be alive.
inline util::Status repair_reference(const graph::Graph& snapshot,
                                     const std::vector<char>& alive,
                                     int num_chunks,
                                     metrics::CacheState& state,
                                     const core::RepairOptions& options) {
  using graph::NodeId;
  using metrics::ChunkId;
  const int n = snapshot.num_nodes();
  std::vector<int> lost(static_cast<std::size_t>(num_chunks), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (alive[static_cast<std::size_t>(v)] != 0) continue;
    const std::vector<ChunkId> held = state.chunks_on(v);
    for (ChunkId c : held) {
      state.remove(v, c);
      ++lost[static_cast<std::size_t>(c)];
    }
  }
  if (options.level == core::RepairLevel::kEvictOnly) return util::Status();

  const graph::CsrAdjacency adj = graph::build_csr(snapshot);
  std::vector<ChunkId> escalate;
  for (ChunkId c = 0; c < num_chunks; ++c) {
    const int lost_c = lost[static_cast<std::size_t>(c)];
    if (lost_c == 0) continue;
    const std::vector<NodeId> chosen =
        core::greedy_rehost(adj, state, c, &alive, /*radius=*/0, lost_c)
            .chosen;
    for (NodeId v : chosen) state.add(v, c);
    if (static_cast<int>(chosen.size()) < lost_c &&
        options.level == core::RepairLevel::kLocalThenResolve) {
      escalate.push_back(c);
    }
  }

  for (ChunkId c : escalate) {
    core::AliveComponent component =
        core::induce_alive_component(snapshot, alive, state);
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      if (component.state.holds(v, c)) component.state.remove(v, c);
    }
    core::FairCachingProblem sub_problem;
    sub_problem.network = &component.sub.graph;
    sub_problem.producer = component.state.producer();
    sub_problem.num_chunks = num_chunks;
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      sub_problem.capacities.push_back(component.state.capacity(v));
    }
    core::InstanceOptions instance_options = options.approx.instance;
    instance_options.demand = nullptr;
    const util::Result<confl::ConflInstance> instance =
        fresh_escalation_instance(sub_problem, component.state,
                                  instance_options, c);
    if (!instance.ok()) return instance.status();
    const util::Result<confl::ConflSolution> solution =
        confl::try_solve_confl(instance.value(), options.approx.confl);
    if (!solution.ok()) continue;  // the chunk keeps its local repair
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.holds(orig, c)) state.remove(orig, c);
    }
    for (NodeId v : solution.value().open_facilities) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.can_cache(orig, c)) state.add(orig, c);
    }
  }
  return util::Status();
}

}  // namespace faircache::testutil
