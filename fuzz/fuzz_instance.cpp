// Fuzz target: the instance-construction boundary and the growth engine.
// Arbitrary bytes decode to a problem; validation must classify it with a
// typed Status, a validated problem must always yield a well-formed ConFL
// instance, and that instance must solve under the decoded options to
// the dense reference engine's solution, bit for bit (n ≤ 32 keeps the
// reference cheap). When the decoded contention mode is kSparse, the
// sparse instance the chunk engine builds at the decoded radius must
// solve to the reference's solution on its dense twin (+inf outside the
// radius) too. Any uncaught exception or abort is a finding.

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "core/validate.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"
#include "graph/shortest_paths.h"
#include "metrics/sparse_contention.h"
#include "util/matrix.h"

namespace faircache::fuzz {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Solves `instance` with the growth engine and `reference` (its dense
// form) with the reference engine; aborts unless the two agree bit for
// bit.
void expect_reference_solution(const confl::ConflInstance& instance,
                               const confl::ConflInstance& reference,
                               const confl::ConflOptions& options) {
  const util::Result<confl::ConflSolution> solved =
      confl::try_solve_confl(instance, options);
  if (!solved.ok()) std::abort();
  const confl::ConflSolution& got = solved.value();
  const confl::ConflSolution want =
      confl::solve_confl_reference(reference, options);
  if (got.open_facilities != want.open_facilities ||
      got.assignment != want.assignment || got.rounds != want.rounds ||
      !same_bits(got.facility_cost, want.facility_cost) ||
      !same_bits(got.assignment_cost, want.assignment_cost) ||
      !same_bits(got.tree_cost, want.tree_cost)) {
    std::abort();
  }
}

// The dense twin of a sparse instance: the stored pairs at their costs,
// every other pair +inf.
confl::ConflInstance dense_twin(const confl::ConflInstance& sparse) {
  confl::ConflInstance dense = sparse;
  const metrics::SparseContention& s = sparse.sparse_cost;
  const auto n = static_cast<std::size_t>(s.num_nodes);
  dense.sparse_cost = metrics::SparseContention();
  dense.assign_cost = util::Matrix<double>(n, n, graph::kInfCost);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int64_t t = s.row_offset[i]; t < s.row_offset[i + 1]; ++t) {
      const auto u = static_cast<std::size_t>(t);
      dense.assign_cost(i, static_cast<std::size_t>(s.col[u])) = s.cost[u];
    }
  }
  return dense;
}

}  // namespace

int run_instance_target(const std::uint8_t* data, std::size_t size) {
  const SerialScope serial;
  DecodedProblem d;
  decode_problem(data, size, d);

  const util::Status status = core::validate_problem(d.problem);
  if (!status.ok()) {
    // Rejections must carry one of the two input-classification codes.
    if (status.code() != util::StatusCode::kInvalidInput &&
        status.code() != util::StatusCode::kInfeasible) {
      std::abort();
    }
    return 0;
  }

  const metrics::CacheState state = d.problem.make_initial_state();
  util::Result<confl::ConflInstance> instance = core::try_build_chunk_instance(
      d.problem, state, d.config.instance, /*chunk=*/0);
  // A problem that passed validation must build, and the built instance
  // must itself pass the solver's instance validator.
  if (!instance.ok()) std::abort();
  if (!confl::validate_confl_instance(instance.value()).ok()) std::abort();

  // Differential check of the growth engine against the reference (the
  // stateless builder always yields the dense matrix the reference needs).
  expect_reference_solution(instance.value(), instance.value(),
                            d.config.confl);

  // The sparse engine's truncated rows, against the reference on their
  // dense twin.
  if (d.config.instance.contention_mode == core::ContentionMode::kSparse) {
    core::ChunkInstanceEngine engine(d.problem, d.config.instance);
    util::Result<confl::ConflInstance> sparse =
        engine.build(state, /*chunk=*/0);
    if (!sparse.ok() || !sparse.value().sparse()) std::abort();
    expect_reference_solution(sparse.value(), dense_twin(sparse.value()),
                              d.config.confl);
  }
  return 0;
}

}  // namespace faircache::fuzz

#ifdef FAIRCACHE_FUZZ_STANDALONE
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return faircache::fuzz::run_instance_target(data, size);
}
#endif
