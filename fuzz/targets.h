#pragma once

// Entry points of the fuzz target bodies, callable outside libFuzzer.
// The standalone fuzzers (-DFAIRCACHE_FUZZ=ON, clang) wrap these in
// LLVMFuzzerTestOneInput; tests/fuzz_corpus_test.cpp replays the
// checked-in corpus through them in every plain build, so any input the
// fuzzer ever minimized stays a permanent regression test.

#include <cstddef>
#include <cstdint>

namespace faircache::fuzz {

// Decode → validate → build one ConFL instance → solve it. Never throws
// or aborts on any input; malformed problems must come back as typed
// statuses. Aborts when a valid instance fails to solve or when
// try_solve_confl differs from solve_confl_reference.
int run_instance_target(const std::uint8_t* data, std::size_t size);

// Decode → validate → anytime solve under a tiny work-unit budget →
// unbudgeted churn repair of the solved placement. Verifies the anytime
// contract: an OK result is complete and feasible, an error is
// kInvalidInput or kInfeasible — never a budget code, never a throw. The
// repair must succeed, validate, and match the fresh-build reference in
// tests/repair_reference.h.
int run_solve_target(const std::uint8_t* data, std::size_t size);

// Decode → replay a short serving trace (online driver or the
// adaptive-gradient policy, per the serving byte). Verifies exact request
// accounting, capacity feasibility of the final placement, and typed
// errors only.
int run_serving_target(const std::uint8_t* data, std::size_t size);

}  // namespace faircache::fuzz
