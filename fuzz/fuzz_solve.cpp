// Fuzz target: the anytime solve path end to end, then one churn repair.
// Arbitrary bytes decode to a problem which is solved under a tiny
// work-unit budget, so the harness constantly exercises mid-phase expiry
// and the greedy fallback. Oracle: an OK result covers every chunk and
// respects capacities; an error is kInvalidInput or kInfeasible — a budget
// code escaping as an error, or any throw, is a finding. The solved
// placement then loses the nodes of a decoded departure mask and is
// repaired unbudgeted: the repair must succeed, leave a valid placement
// and equal the fresh-build reference (tests/repair_reference.h) node for
// node, so the escalation engine's delta-patched builds stay bit-identical
// to per-chunk fresh builds.

#include <cstdlib>
#include <vector>

#include "core/approx.h"
#include "core/repair.h"
#include "core/validate.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"
#include "tests/repair_reference.h"

namespace faircache::fuzz {
namespace {

// The departure mask: the four bytes before the budget byte, little-endian
// (fewer on a short input). Bit v departs node v; the producer stays.
std::vector<char> decode_alive(const std::uint8_t* data, std::size_t size,
                               int num_nodes, graph::NodeId producer) {
  std::uint32_t mask = 0;
  for (std::size_t b = 0; b < 4 && b + 2 <= size; ++b) {
    mask |= static_cast<std::uint32_t>(data[size - 2 - b]) << (8 * b);
  }
  std::vector<char> alive(static_cast<std::size_t>(num_nodes), 1);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    if (v != producer && ((mask >> v) & 1U) != 0) {
      alive[static_cast<std::size_t>(v)] = 0;
    }
  }
  return alive;
}

// Departs the decoded nodes and repairs `state` unbudgeted; aborts unless
// the repair succeeds, validates and matches the reference placement.
void expect_reference_repair(const DecodedProblem& d,
                             const metrics::CacheState& solved,
                             const std::uint8_t* data, std::size_t size) {
  const std::vector<char> alive =
      decode_alive(data, size, d.network.num_nodes(), d.problem.producer);
  core::RepairOptions options;
  options.approx = d.config;
  metrics::CacheState state = solved;
  const util::Result<core::RepairReport> repaired =
      core::PlacementRepairEngine(options).repair(
          d.network, alive, d.problem.num_chunks, state);
  if (!repaired.ok() ||
      !core::validate_placement(state, d.problem.num_chunks, &alive).ok()) {
    std::abort();
  }
  metrics::CacheState want = solved;
  if (!testutil::repair_reference(d.network, alive, d.problem.num_chunks,
                                  want, options)
           .ok()) {
    std::abort();
  }
  for (graph::NodeId v = 0; v < d.network.num_nodes(); ++v) {
    if (state.chunks_on(v) != want.chunks_on(v)) std::abort();
  }
}

}  // namespace

int run_solve_target(const std::uint8_t* data, std::size_t size) {
  const SerialScope serial;
  DecodedProblem d;
  decode_problem(data, size, d);

  // The budget byte spans "expires immediately" to "usually completes".
  const std::uint64_t cap = size > 0 ? data[size - 1] % 64 : 0;
  const util::RunBudget budget = util::RunBudget::work_units(cap);

  core::ApproxFairCaching algorithm(d.config);
  core::SolveReport report;
  util::Result<core::FairCachingResult> result =
      algorithm.solve(d.problem, budget, &report);

  if (!result.ok()) {
    if (result.code() != util::StatusCode::kInvalidInput &&
        result.code() != util::StatusCode::kInfeasible) {
      std::abort();
    }
    return 0;
  }

  const core::FairCachingResult& r = result.value();
  if (static_cast<int>(r.placements.size()) != d.problem.num_chunks) {
    std::abort();
  }
  if (report.chunks_solved() +
          static_cast<int>(report.degraded_chunks.size()) !=
      report.chunks_total) {
    std::abort();
  }
  // Feasibility: no node stores more chunks than its capacity.
  for (graph::NodeId v = 0; v < d.network.num_nodes(); ++v) {
    if (v == d.problem.producer) continue;
    if (r.state.used(v) > r.state.capacity(v)) std::abort();
  }
  expect_reference_repair(d, r.state, data, size);
  return 0;
}

}  // namespace faircache::fuzz

#ifdef FAIRCACHE_FUZZ_STANDALONE
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return faircache::fuzz::run_solve_target(data, size);
}
#endif
