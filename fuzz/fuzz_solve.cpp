// Fuzz target: the anytime solve path end to end. Arbitrary bytes decode
// to a problem which is solved under a tiny work-unit budget, so the
// harness constantly exercises mid-phase expiry and the greedy fallback.
// Oracle: an OK result covers every chunk and respects capacities; an
// error is kInvalidInput or kInfeasible — a budget code escaping as an
// error, or any throw, is a finding.

#include <cstdlib>

#include "core/approx.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"

namespace faircache::fuzz {

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
  return 0;
}

}  // namespace faircache::fuzz

#ifdef FAIRCACHE_FUZZ_STANDALONE
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return faircache::fuzz::run_solve_target(data, size);
}
#endif
