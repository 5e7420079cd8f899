// Fuzz target: the instance-construction boundary and the growth engine.
// Arbitrary bytes decode to a problem; validation must classify it with a
// typed Status, a validated problem must always yield a well-formed ConFL
// instance, and that instance must solve under the decoded options to
// the dense reference engine's solution, bit for bit (n ≤ 32 keeps the
// reference cheap). Any uncaught exception or abort is a finding.

#include <cstdlib>
#include <cstring>

#include "confl/confl.h"
#include "core/instance_builder.h"
#include "core/validate.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"

namespace faircache::fuzz {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
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
  const util::Result<confl::ConflSolution> solved =
      confl::try_solve_confl(instance.value(), d.config.confl);
  if (!solved.ok()) std::abort();
  const confl::ConflSolution& got = solved.value();
  const confl::ConflSolution want =
      confl::solve_confl_reference(instance.value(), d.config.confl);
  if (got.open_facilities != want.open_facilities ||
      got.assignment != want.assignment || got.rounds != want.rounds ||
      !same_bits(got.facility_cost, want.facility_cost) ||
      !same_bits(got.assignment_cost, want.assignment_cost) ||
      !same_bits(got.tree_cost, want.tree_cost)) {
    std::abort();
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
