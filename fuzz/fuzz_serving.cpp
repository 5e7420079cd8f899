// Fuzz target: the trace-driven serving engine end to end. Arbitrary
// bytes decode to a problem plus a short replay config (replacement /
// drift / re-optimization under a tiny work cap, or the adaptive-gradient
// external policy), and the whole stream is served. Oracle: every request
// is accounted exactly once (local + relay + producer == requests), the
// final placement respects capacities, and an error is kInvalidInput or
// kInfeasible — never a throw, never a budget code.

#include <cstdlib>

#include "baselines/adaptive_gradient.h"
#include "fuzz/decoder.h"
#include "fuzz/targets.h"
#include "sim/serving.h"

namespace faircache::fuzz {

int run_serving_target(const std::uint8_t* data, std::size_t size) {
  const SerialScope serial;
  DecodedProblem d;
  decode_problem(data, size, d);

  sim::ServingEngine engine(d.problem, d.serving);
  const util::Result<sim::ServingResult> result =
      [&]() -> util::Result<sim::ServingResult> {
    if (!d.serving_adaptive) return engine.run();
    // The adaptive policy needs a validated problem up front; mirror the
    // engine's own gate so construction never throws on malformed input.
    if (util::Status status = core::validate_problem(d.problem);
        !status.ok()) {
      return status;
    }
    if (d.problem.num_chunks < 1) {
      return util::Status::invalid_input("no chunk catalog");
    }
    baselines::AdaptiveGradientCaching policy(d.problem);
    return engine.run(&policy);
  }();

  if (!result.ok()) {
    if (result.code() != util::StatusCode::kInvalidInput &&
        result.code() != util::StatusCode::kInfeasible) {
      std::abort();
    }
    return 0;
  }

  const sim::ServingResult& r = result.value();
  if (r.totals.requests != d.serving.requests) std::abort();
  if (r.totals.hits_local + r.totals.hits_relay + r.totals.producer_fetches !=
      r.totals.requests) {
    std::abort();
  }
  for (graph::NodeId v = 0; v < d.network.num_nodes(); ++v) {
    if (v == d.problem.producer) continue;
    if (r.state.used(v) > r.state.capacity(v)) std::abort();
  }
  // The hash must be a pure function of the result (determinism is checked
  // elsewhere; here it just must not crash on any shape).
  (void)sim::serving_result_hash(r);
  return 0;
}

}  // namespace faircache::fuzz

#ifdef FAIRCACHE_FUZZ_STANDALONE
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return faircache::fuzz::run_serving_target(data, size);
}
#endif
