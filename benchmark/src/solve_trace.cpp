#include "solve_trace.h"

#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "core/validate.h"
#include "report.h"
#include "steiner/steiner.h"

namespace fcbench {

namespace {

using namespace faircache;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void SolveLayers::add(const SolveLayers& other) {
  wall_ms += other.wall_ms;
  build_ms += other.build_ms;
  tree_ms += other.tree_ms;
  delta_ms += other.delta_ms;
  confl_ms += other.confl_ms;
  steiner_ms += other.steiner_ms;
  audit_ms += other.audit_ms;
  builds += other.builds;
  rounds += other.rounds;
  open_facilities += other.open_facilities;
  terminals += other.terminals;
  tree_edges += other.tree_edges;
  audits += other.audits;
}

util::Result<core::FairCachingResult> traced_solve(
    const core::FairCachingProblem& problem, const core::ApproxConfig& config,
    const util::RunBudget& budget, SolveLayers& layers) {
  const Clock::time_point start = Clock::now();
  SolveLayers local;
  if (util::Status status = core::validate_problem(problem); !status.ok()) {
    return status;
  }
  core::FairCachingResult result;
  result.algorithm = "Appx";
  result.state = problem.make_initial_state();

  Clock::time_point t = Clock::now();
  core::ChunkInstanceEngine engine(problem, config.instance);
  local.build_ms += ms_since(t);

  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    if (budget.expired()) return budget.status("traced chunk loop");
    t = Clock::now();
    util::Result<confl::ConflInstance> instance =
        engine.build(result.state, chunk);
    local.build_ms += ms_since(t);
    ++local.builds;
    if (!instance.ok()) return instance.status();

    t = Clock::now();
    util::Result<confl::ConflSolution> solved =
        confl::try_solve_confl(instance.value(), config.confl, budget);
    local.confl_ms += ms_since(t);
    if (!solved.ok()) return solved.status();
    const confl::ConflSolution& solution = solved.value();

    if (!solution.open_facilities.empty()) {
      // Same terminals and scaled costs as the solver's Phase 2, run
      // outside the solver's budget so the re-run charges no work units.
      const Clock::time_point replay = Clock::now();
      std::vector<graph::NodeId> terminals = solution.open_facilities;
      terminals.push_back(instance.value().root);
      local.terminals += static_cast<long>(terminals.size());
      std::vector<double> scaled = instance.value().edge_cost;
      for (double& w : scaled) w *= instance.value().edge_scale;
      util::Result<steiner::SteinerTree> tree = steiner::try_steiner_mst_approx(
          *problem.network, scaled, std::move(terminals), config.confl.threads,
          util::RunBudget::unlimited(), config.confl.steiner_engine);
      local.steiner_ms += ms_since(replay);
      if (!tree.ok()) return tree.status();
      if (tree.value().edges != solution.tree.edges ||
          !same_bits(tree.value().cost, solution.tree.cost)) {
        return util::Status::invalid_input(
            "Steiner re-run differs from the solver's tree on chunk " +
            std::to_string(chunk));
      }
      local.tree_edges += static_cast<long>(solution.tree.edges.size());
    }

    core::ChunkPlacement placement;
    placement.chunk = chunk;
    placement.solver_objective = solution.total();
    placement.solver_rounds = solution.rounds;
    local.rounds += solution.rounds;
    local.open_facilities += static_cast<long>(solution.open_facilities.size());
    for (graph::NodeId v : solution.open_facilities) {
      if (result.state.can_cache(v, chunk)) {
        result.state.add(v, chunk);
        placement.cache_nodes.push_back(v);
      }
    }
    result.placements.push_back(std::move(placement));

    t = Clock::now();
    engine.reclaim(std::move(instance).value());
    local.build_ms += ms_since(t);
  }
  local.tree_ms = engine.stats().tree_seconds * 1e3;
  local.delta_ms = engine.stats().delta_seconds * 1e3;
  local.audit_ms = engine.guard_report().audit_seconds * 1e3;
  local.audits = engine.guard_report().audits;
  local.wall_ms = ms_since(start) - local.steiner_ms;
  result.runtime_seconds = local.wall_ms / 1e3;
  layers.add(local);
  return result;
}

bool same_result(const core::FairCachingResult& a,
                 const core::FairCachingResult& b) {
  if (a.placements.size() != b.placements.size()) return false;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const core::ChunkPlacement& pa = a.placements[i];
    const core::ChunkPlacement& pb = b.placements[i];
    if (pa.chunk != pb.chunk || pa.cache_nodes != pb.cache_nodes ||
        !same_bits(pa.solver_objective, pb.solver_objective) ||
        pa.solver_rounds != pb.solver_rounds) {
      return false;
    }
  }
  return state_hash(a.state) == state_hash(b.state);
}

std::uint64_t state_hash(const metrics::CacheState& state) {
  Fnv1a h;
  for (graph::NodeId v = 0; v < state.num_nodes(); ++v) {
    h.value(v);
    for (metrics::ChunkId c : state.chunks_on(v)) h.value(c);
  }
  return h.digest();
}

}  // namespace fcbench
